package traffic

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash"
	"io"
	"math"
	"os"
	"path/filepath"

	"rnuma/internal/addr"
	"rnuma/internal/trace"
	"rnuma/internal/tracefile"
	"rnuma/internal/workloads"
)

// stampedRef is one client-lane record with its arrival time.
type stampedRef struct {
	ref trace.Ref // client-local page numbering
	t   float64   // arrival stamp in cycles from scenario start
}

// clientLanes is one client's stamped per-CPU lanes plus its local
// placement.
type clientLanes struct {
	name  string
	lanes [][]stampedRef
	homes []addr.NodeID
}

// Compile builds the scenario for a machine configuration as one
// workload: per-CPU streams merged in a single global page numbering,
// the concatenated page placement, and the attribution of every record
// to its client. The machine replays it unchanged; the attribution lets
// stats and telemetry break results out per tenant. Phase paths are
// resolved against baseDir (the traffic spec's directory), and phases is
// the digest of the phase files it read, as PhaseDigest reads them.
func Compile(s *Spec, cfg workloads.Config, baseDir string) (w *workloads.Workload, phases [sha256.Size]byte, err error) {
	if err := s.Validate(); err != nil {
		return nil, phases, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, phases, err
	}
	digest := sha256.New()
	cls, err := compileClients(s, cfg, baseDir, digest)
	if err != nil {
		return nil, phases, err
	}
	return merge(s.Name, cls, cfg), [sha256.Size]byte(digest.Sum(nil)), nil
}

// compileClients compiles every client's stamped lanes, adding each
// phase file's SHA-256 to digest in schedule order.
func compileClients(s *Spec, cfg workloads.Config, baseDir string, digest hash.Hash) ([]clientLanes, error) {
	meanGap := s.MeanGap
	if meanGap == 0 {
		meanGap = DefaultMeanGap
	}
	cls := make([]clientLanes, len(s.Clients))
	for i, c := range s.Clients {
		var err error
		if cls[i], err = compileClient(c, s.Seed, meanGap, cfg, baseDir, digest); err != nil {
			return nil, fmt.Errorf("traffic %q: client %q: %w", s.Name, c.Name, err)
		}
	}
	return cls, nil
}

// compileClient builds one client's phases against the machine config,
// concatenates them into client-local lanes, and stamps every record with
// its arrival time.
func compileClient(c Client, specSeed int64, meanGap float64, cfg workloads.Config, baseDir string, digest hash.Hash) (clientLanes, error) {
	cpus := cfg.Nodes * cfg.CPUsPerNode
	cl := clientLanes{name: c.Name, lanes: make([][]stampedRef, cpus)}
	refs := make([][]trace.Ref, cpus) // client-local, accumulated over phases
	for pi, ph := range c.Phases {
		wl, err := buildPhase(ph, cfg, baseDir, digest)
		if err != nil {
			return clientLanes{}, fmt.Errorf("phase %d: %w", pi, err)
		}
		base := addr.PageNum(len(cl.homes))
		phRefs := make([][]trace.Ref, cpus)
		for cpu, s := range wl.Streams {
			for {
				r, ok := s.Next()
				if !ok {
					break
				}
				if !r.Barrier {
					r.Page += base
				}
				phRefs[cpu] = append(phRefs[cpu], r)
			}
		}
		if wl.Check != nil {
			if err := wl.Check(); err != nil {
				return clientLanes{}, fmt.Errorf("phase %d: %w", pi, err)
			}
		}
		cl.homes = append(cl.homes, wl.ResolveHomes()...)
		repeat := ph.Repeat
		if repeat == 0 {
			repeat = 1
		}
		// Repeats re-walk the same pages: the tenant re-runs its
		// application over the memory it already owns.
		for r := 0; r < repeat; r++ {
			for cpu := range refs {
				refs[cpu] = append(refs[cpu], phRefs[cpu]...)
			}
		}
	}
	cl.stamp(refs, c, specSeed, meanGap, cfg)
	return cl, nil
}

// maxPhaseBytes bounds a phase file, as the daemon bounds an upload: a
// scenario's phase paths resolve on the host that compiles it, whoever
// wrote the scenario.
var maxPhaseBytes int64 = 256 << 20

// PhaseDigest reads every phase file of s as Compile reads it and returns
// the digest Compile returns. A file it cannot read (missing, not a
// regular file, or past maxPhaseBytes) fails naming the client, phase and
// file; one that does not parse fails only in Compile.
func (s *Spec) PhaseDigest(baseDir string) (sum [sha256.Size]byte, err error) {
	digest := sha256.New()
	for _, c := range s.Clients {
		for pi, ph := range c.Phases {
			if err := readPhase(ph.path(baseDir), io.Discard, digest); err != nil {
				return sum, fmt.Errorf("traffic %q: client %q: phase %d: %w", s.Name, c.Name, pi, err)
			}
		}
	}
	return [sha256.Size]byte(digest.Sum(nil)), nil
}

// path resolves a phase's file against baseDir (the traffic spec's
// directory).
func (ph PhaseRef) path(baseDir string) string {
	path := ph.Spec
	if path == "" {
		path = ph.Trace
	}
	if !filepath.IsAbs(path) && baseDir != "" {
		path = filepath.Join(baseDir, path)
	}
	return path
}

func tooBig(path string) error {
	return fmt.Errorf("traffic: phase file %s is past the %d-byte bound", path, maxPhaseBytes)
}

// readPhase copies a phase file to w, checking before anything is read
// that it is regular and within maxPhaseBytes (a device such as
// /dev/zero never ends, and a FIFO blocks its reader), and adds its
// SHA-256 to digest: a digest of digests, so where one file ends stays
// part of it.
func readPhase(path string, w io.Writer, digest hash.Hash) error {
	fi, err := os.Stat(path)
	if err != nil {
		return fmt.Errorf("traffic: %w", err)
	}
	if !fi.Mode().IsRegular() {
		return fmt.Errorf("traffic: phase file %s is not a regular file", path)
	}
	if fi.Size() > maxPhaseBytes {
		return tooBig(path)
	}
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("traffic: %w", err)
	}
	defer f.Close()
	sum := sha256.New()
	n, err := io.Copy(io.MultiWriter(w, sum), io.LimitReader(f, maxPhaseBytes+1))
	if err != nil {
		return fmt.Errorf("traffic: %w", err)
	}
	if n > maxPhaseBytes { // it grew since the check
		return tooBig(path)
	}
	digest.Write(sum.Sum(nil))
	return nil
}

// buildPhase materializes one phase reference: a workload spec built for
// the config, or a captured trace validated against it.
func buildPhase(ph PhaseRef, cfg workloads.Config, baseDir string, digest hash.Hash) (*workloads.Workload, error) {
	path := ph.path(baseDir)
	// Read the whole file up front: a trace's streams decode lazily, long
	// after this frame is gone.
	var buf bytes.Buffer
	if err := readPhase(path, &buf, digest); err != nil {
		return nil, err
	}
	data := buf.Bytes()
	if ph.Spec != "" {
		ws, err := workloads.Parse(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return ws.Build(cfg)
	}
	d, err := tracefile.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	h := d.Header()
	if h.Geometry != cfg.Geometry {
		return nil, fmt.Errorf("%s: trace geometry %v, scenario wants %v", path, h.Geometry, cfg.Geometry)
	}
	if h.Nodes != cfg.Nodes || h.CPUs != cfg.Nodes*cfg.CPUsPerNode {
		return nil, fmt.Errorf("%s: trace shape %d nodes/%d cpus, scenario wants %d/%d",
			path, h.Nodes, h.CPUs, cfg.Nodes, cfg.Nodes*cfg.CPUsPerNode)
	}
	return d.Workload(), nil
}

// stamp assigns every lane record its arrival time: inter-arrival draws
// from the client's per-lane RNG, scaled by the mean gap over the
// effective rate at the client's current progress. Barriers carry the
// stamp of the preceding arrival (they synchronize; they do not arrive).
func (cl *clientLanes) stamp(raw [][]trace.Ref, c Client, specSeed int64, meanGap float64, cfg workloads.Config) {
	cseed := clientSeed(specSeed, cfg.Seed, c.Name)
	sample := sampler(c.Arrival)
	for cpu, lane := range raw {
		rng := laneRNG(cseed, cpu)
		var n int64 // non-barrier records in this lane
		for _, r := range lane {
			if !r.Barrier {
				n++
			}
		}
		if n == 0 {
			n = 1
		}
		t := 0.0
		var k int64
		out := make([]stampedRef, 0, len(lane))
		for _, r := range lane {
			if r.Barrier {
				out = append(out, stampedRef{ref: trace.BarrierRef(), t: t})
				continue
			}
			u := float64(k) / float64(n)
			rate := c.RateFraction * c.Load.multiplier(u)
			t += sample(rng) * meanGap / rate
			r.Gap = 0 // open-loop: timing comes from the arrival stamps
			out = append(out, stampedRef{ref: r, t: t})
			k++
		}
		cl.lanes[cpu] = out
	}
}

// merge interleaves every client's stamped lanes into one per-CPU stream
// ordered by arrival time (ties resolve to the lower client index, so the
// merge is deterministic), offsets pages into the global numbering,
// derives compute gaps from consecutive stamps, and run-length encodes
// the per-record attribution.
func merge(name string, cls []clientLanes, cfg workloads.Config) *workloads.Workload {
	cpus := cfg.Nodes * cfg.CPUsPerNode
	base := make([]addr.PageNum, len(cls))
	var homes []addr.NodeID
	attr := &trace.Attribution{Spans: make([][]trace.ClientSpan, cpus)}
	for i, cl := range cls {
		base[i] = addr.PageNum(len(homes))
		homes = append(homes, cl.homes...)
		attr.Clients = append(attr.Clients, cl.name)
	}
	refs := make([][]trace.Ref, cpus)
	pos := make([]int, len(cls))
	for cpu := 0; cpu < cpus; cpu++ {
		clear(pos)
		var out []trace.Ref
		var spans []trace.ClientSpan
		lastT := 0.0
		for {
			best, bestT := -1, math.Inf(1)
			for i, cl := range cls {
				if pos[i] >= len(cl.lanes[cpu]) {
					continue
				}
				if t := cl.lanes[cpu][pos[i]].t; t < bestT {
					best, bestT = i, t
				}
			}
			if best < 0 {
				break
			}
			sr := cls[best].lanes[cpu][pos[best]]
			pos[best]++
			r := sr.ref
			if !r.Barrier {
				r.Page += base[best]
				gap := sr.t - lastT
				switch {
				case gap < 0:
					r.Gap = 0
				case gap > 0xFFFF:
					r.Gap = 0xFFFF
				default:
					r.Gap = uint16(gap + 0.5)
				}
				lastT = sr.t
			}
			out = append(out, r)
			if n := len(spans); n > 0 && spans[n-1].Client == int32(best) {
				spans[n-1].N++
			} else {
				spans = append(spans, trace.ClientSpan{Client: int32(best), N: 1})
			}
		}
		refs[cpu] = out
		attr.Spans[cpu] = spans
	}
	nodes := addr.NodeID(cfg.Nodes)
	w := workloads.FromRefs(name, refs, func(p addr.PageNum) addr.NodeID {
		if int(p) < len(homes) {
			return homes[p]
		}
		return addr.NodeID(p) % nodes
	}, len(homes))
	w.Attribution = attr
	return w
}
