package traffic

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"rnuma/internal/addr"
	"rnuma/internal/spec"
	"rnuma/internal/trace"
	"rnuma/internal/tracefile"
	"rnuma/internal/workloads"
)

// Scenario is a compiled traffic spec: per-CPU merged reference streams in
// a single global page numbering, the per-record client attribution, and
// the concatenated page placement. It behaves exactly like a built
// workload — the machine replays it unchanged — plus the attribution that
// lets stats and telemetry break results out per tenant.
type Scenario struct {
	Name        string
	Description string
	// Clients names the tenants in spec order (the attribution and all
	// per-client stats index this).
	Clients []string
	// Cfg is the machine shape the scenario was compiled for.
	Cfg workloads.Config

	// Refs holds the merged per-CPU streams (global page numbering).
	Refs [][]trace.Ref
	// Attr attributes every record of Refs to its client.
	Attr *trace.Attribution
	// Homes is the dense page placement for the concatenated segment.
	Homes       []addr.NodeID
	SharedPages int

	// perClient keeps each client's stamped, client-locally-numbered
	// lanes: the pre-merge form whose bit-stability under client set
	// changes the regression tests pin.
	perClient []clientLanes
}

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

// Compile builds the scenario for a machine configuration. Phase paths
// are resolved against baseDir (the traffic spec's directory).
func Compile(s *Spec, cfg workloads.Config, baseDir string) (*Scenario, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	meanGap := s.MeanGap
	if meanGap == 0 {
		meanGap = DefaultMeanGap
	}
	sc := &Scenario{
		Name:        s.Name,
		Description: s.Description,
		Cfg:         cfg,
	}
	if sc.Description == "" {
		sc.Description = fmt.Sprintf("traffic scenario (%d clients)", len(s.Clients))
	}
	for _, c := range s.Clients {
		sc.Clients = append(sc.Clients, c.Name)
		cl, err := compileClient(c, s.Seed, meanGap, cfg, baseDir)
		if err != nil {
			return nil, fmt.Errorf("traffic %q: client %q: %w", s.Name, c.Name, err)
		}
		sc.perClient = append(sc.perClient, cl)
	}
	sc.merge()
	return sc, nil
}

// compileClient builds one client's phases against the machine config,
// concatenates them into client-local lanes, and stamps every record with
// its arrival time.
func compileClient(c Client, specSeed int64, meanGap float64, cfg workloads.Config, baseDir string) (clientLanes, error) {
	cpus := cfg.Nodes * cfg.CPUsPerNode
	cl := clientLanes{name: c.Name, lanes: make([][]stampedRef, cpus)}
	refs := make([][]trace.Ref, cpus) // client-local, accumulated over phases
	for pi, ph := range c.Phases {
		wl, err := buildPhase(ph, cfg, baseDir)
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

// CheckPhases reports the first phase file Compile would refuse to read,
// with its path resolved against baseDir as Compile resolves it: one that
// is missing, not a regular file, or past maxPhaseBytes. It reads no
// file, so a phase file that exists but does not parse still fails in
// Compile.
func (s *Spec) CheckPhases(baseDir string) error {
	for _, c := range s.Clients {
		for pi, ph := range c.Phases {
			if err := statPhase(ph.path(baseDir)); err != nil {
				return fmt.Errorf("traffic %q: client %q: phase %d: %w", s.Name, c.Name, pi, err)
			}
		}
	}
	return nil
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

// statPhase checks, before anything is read, that a phase file is
// regular and within maxPhaseBytes: a device such as /dev/zero never
// ends, and a FIFO blocks its reader.
func statPhase(path string) error {
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
	return nil
}

func tooBig(path string) error {
	return fmt.Errorf("traffic: phase file %s is past the %d-byte bound", path, maxPhaseBytes)
}

// readPhase reads a phase file that statPhase accepts.
func readPhase(path string) ([]byte, error) {
	if err := statPhase(path); err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("traffic: %w", err)
	}
	defer f.Close()
	data, err := io.ReadAll(io.LimitReader(f, maxPhaseBytes+1))
	if err != nil {
		return nil, fmt.Errorf("traffic: %w", err)
	}
	if int64(len(data)) > maxPhaseBytes { // it grew since the check
		return nil, tooBig(path)
	}
	return data, nil
}

// buildPhase materializes one phase reference: a workload spec built for
// the config, or a captured trace validated against it.
func buildPhase(ph PhaseRef, cfg workloads.Config, baseDir string) (*workloads.Workload, error) {
	path := ph.path(baseDir)
	// Read the whole file up front: a trace's streams decode lazily, long
	// after this frame is gone.
	data, err := readPhase(path)
	if err != nil {
		return nil, err
	}
	if ph.Spec != "" {
		ws, err := spec.Parse(data)
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
func (sc *Scenario) merge() {
	cpus := sc.Cfg.Nodes * sc.Cfg.CPUsPerNode
	base := make([]addr.PageNum, len(sc.perClient))
	for i, cl := range sc.perClient {
		base[i] = addr.PageNum(len(sc.Homes))
		sc.Homes = append(sc.Homes, cl.homes...)
	}
	sc.SharedPages = len(sc.Homes)
	sc.Refs = make([][]trace.Ref, cpus)
	sc.Attr = &trace.Attribution{
		Clients: sc.Clients,
		Spans:   make([][]trace.ClientSpan, cpus),
	}
	pos := make([]int, len(sc.perClient))
	for cpu := 0; cpu < cpus; cpu++ {
		for i := range pos {
			pos[i] = 0
		}
		var out []trace.Ref
		var spans []trace.ClientSpan
		lastT := 0.0
		for {
			best, bestT := -1, math.Inf(1)
			for i, cl := range sc.perClient {
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
			sr := sc.perClient[best].lanes[cpu][pos[best]]
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
		sc.Refs[cpu] = out
		sc.Attr.Spans[cpu] = spans
	}
}

// Workload wraps the scenario as a replayable workload: fresh streams over
// the merged references, the concatenated placement, and the attribution
// the machine uses to split counters per client.
func (sc *Scenario) Workload() *workloads.Workload {
	streams := make([]trace.Stream, len(sc.Refs))
	for i, r := range sc.Refs {
		streams[i] = trace.FromSlice(r)
	}
	homes := sc.Homes
	nodes := addr.NodeID(sc.Cfg.Nodes)
	return &workloads.Workload{
		Name:        sc.Name,
		Description: sc.Description,
		PaperInput:  "(traffic scenario)",
		Streams:     streams,
		Homes: func(p addr.PageNum) addr.NodeID {
			if int(p) < len(homes) {
				return homes[p]
			}
			return addr.NodeID(p) % nodes
		},
		SharedPages: sc.SharedPages,
		Attribution: sc.Attr,
	}
}

// Records returns the scenario's total record count (all CPUs, barriers
// included).
func (sc *Scenario) Records() int64 {
	var n int64
	for _, r := range sc.Refs {
		n += int64(len(r))
	}
	return n
}
