package tracefile

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"rnuma/internal/addr"
	"rnuma/internal/trace"
)

// This file implements trace transforms: operations that rewrite a
// trace's *content* rather than merely slicing it (splice.go). Retarget
// remaps a capture onto a different machine shape, Dilate rescales its
// compute gaps, and Diff explains where two traces' streams diverge. The
// rewrites are pure Maps over the source header; the io functions stream
// a trace through them, so transforms compose with cut/cat piping and
// never materialize a whole trace.

// Map is a transform's pure form: the output header, validated as
// NewWriter validates it, and Record, which rewrites a source CPU's
// record in place, range-checked against Header as Writer.Append checks
// it, and returns its output CPU. Only a CPU-count retarget moves records.
type Map struct {
	Header Header
	Record func(cpu int, r *trace.Ref) (int, error)
}

// apply streams src through the pure form pure builds from its header
// into dst, in the canonical round-robin record order. It returns the
// record count written.
func apply(dst io.Writer, src io.Reader, pure func(Header) (Map, error)) (int64, error) {
	d, err := NewReader(src)
	if err != nil {
		return 0, err
	}
	m, err := pure(d.Header())
	if err != nil {
		return 0, err
	}
	tw, err := NewWriter(dst, m.Header)
	if err != nil {
		return 0, err
	}
	var rec trace.Ref // one record mapped in place; a per-call &r would escape
	err = eachRecord(d, func(cpu int, r trace.Ref) error {
		rec = r
		cpu, err := m.Record(cpu, &rec)
		if err != nil {
			return err
		}
		return tw.Append(cpu, rec)
	})
	if err != nil {
		return tw.Refs(), err
	}
	return tw.Refs(), tw.Close()
}

// ---------------------------------------------------------------------
// Retarget.

// RemapPolicy decides how a retarget places the source trace's pages in
// the target segment and which node homes each target page. Policies are
// resolved once per retarget against the source header and the resolved
// target shape.
type RemapPolicy interface {
	// Name identifies the policy in errors and CLI flags.
	Name() string
	// Resolve returns the page mapping (applied to every non-barrier
	// record) and the target page-home map (len == pages, every entry
	// < nodes). MapPage errors abort the retarget — a policy that does
	// not fold must reject source pages falling outside the target
	// segment rather than wrap them.
	Resolve(src Header, nodes, pages int) (mapPage func(addr.PageNum) (addr.PageNum, error), homes []addr.NodeID, err error)
}

// roundRobinHomes is the shared default placement: target page q homed
// at node q % nodes.
func roundRobinHomes(nodes, pages int) []addr.NodeID {
	homes := make([]addr.NodeID, pages)
	for q := range homes {
		homes[q] = addr.NodeID(q % nodes)
	}
	return homes
}

// rangeCheckedIdentity is the shared non-folding page map: pages keep
// their numbers, and a source page outside the target segment is an
// error (never a silent wrap — shrinking a trace is what the modulo
// policy is for).
func rangeCheckedIdentity(policy string, pages int) func(addr.PageNum) (addr.PageNum, error) {
	return func(p addr.PageNum) (addr.PageNum, error) {
		if int(p) >= pages {
			return 0, fmt.Errorf("tracefile: retarget: page %d outside the %d-page target segment (policy %q does not fold; retarget with the modulo policy to wrap pages)", p, pages, policy)
		}
		return p, nil
	}
}

// identityPolicy keeps page numbers and preserves the source placement:
// target page q stays homed where the source homed it (folded into the
// target node range when nodes shrink). Retargeting a trace back onto
// its own shape with this policy reproduces it exactly.
type identityPolicy struct{}

// Identity returns the placement-preserving policy.
func Identity() RemapPolicy { return identityPolicy{} }

func (identityPolicy) Name() string { return "identity" }

func (identityPolicy) Resolve(src Header, nodes, pages int) (func(addr.PageNum) (addr.PageNum, error), []addr.NodeID, error) {
	homes := make([]addr.NodeID, pages)
	for q := range homes {
		if q < len(src.Homes) {
			homes[q] = src.Homes[q] % addr.NodeID(nodes)
		} else {
			homes[q] = addr.NodeID(q % nodes)
		}
	}
	return rangeCheckedIdentity("identity", pages), homes, nil
}

// roundRobinPolicy keeps page numbers and re-homes the target segment
// round-robin across the target nodes — the natural choice for node-count
// sweeps, where the source placement references nodes that may not exist
// (or would leave new nodes homeless).
type roundRobinPolicy struct{}

// RoundRobin returns the round-robin re-homing policy.
func RoundRobin() RemapPolicy { return roundRobinPolicy{} }

func (roundRobinPolicy) Name() string { return "roundrobin" }

func (roundRobinPolicy) Resolve(src Header, nodes, pages int) (func(addr.PageNum) (addr.PageNum, error), []addr.NodeID, error) {
	return rangeCheckedIdentity("roundrobin", pages), roundRobinHomes(nodes, pages), nil
}

// moduloPolicy folds the source segment onto the target one: page p maps
// to p % pages, and the target is homed round-robin. This is the only
// built-in policy that may alias distinct source pages, so it is never
// the default — shrinking a segment must be asked for by name.
type moduloPolicy struct{}

// ModuloFold returns the page-folding policy.
func ModuloFold() RemapPolicy { return moduloPolicy{} }

func (moduloPolicy) Name() string { return "modulo" }

func (moduloPolicy) Resolve(src Header, nodes, pages int) (func(addr.PageNum) (addr.PageNum, error), []addr.NodeID, error) {
	np := addr.PageNum(pages)
	return func(p addr.PageNum) (addr.PageNum, error) { return p % np, nil }, roundRobinHomes(nodes, pages), nil
}

// mapFile is the JSON document an explicit-map policy is loaded from.
// Both fields are optional: omitted pages mean the identity mapping, and
// omitted homes mean round-robin placement.
type mapFile struct {
	// Pages maps source page p to Pages[p]. A source record referencing a
	// page at or beyond len(Pages) is an error, as is a target value
	// outside the target segment.
	Pages []int `json:"pages"`
	// Homes assigns each target page's home node; when present its length
	// must equal the target page count.
	Homes []int `json:"homes"`
}

// explicitPolicy applies a page map and/or home map loaded from a file.
type explicitPolicy struct {
	m mapFile
}

// MapFilePolicy parses an explicit remap document (JSON with optional
// "pages" and "homes" arrays; see the package docs for the semantics).
// Unknown fields are rejected, like internal/spec's parser — a typoed
// "homes" key must not silently fall back to round-robin placement.
func MapFilePolicy(data []byte) (RemapPolicy, error) {
	var m mapFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("tracefile: parsing map file: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("tracefile: map file has trailing data after the document")
	}
	if m.Pages == nil && m.Homes == nil {
		return nil, fmt.Errorf("tracefile: map file defines neither \"pages\" nor \"homes\"")
	}
	return explicitPolicy{m: m}, nil
}

func (explicitPolicy) Name() string { return "mapfile" }

func (e explicitPolicy) Resolve(src Header, nodes, pages int) (func(addr.PageNum) (addr.PageNum, error), []addr.NodeID, error) {
	homes := make([]addr.NodeID, pages)
	if e.m.Homes != nil {
		if len(e.m.Homes) != pages {
			return nil, nil, fmt.Errorf("tracefile: map file homes cover %d pages, target segment has %d", len(e.m.Homes), pages)
		}
		for q, n := range e.m.Homes {
			if n < 0 || n >= nodes {
				return nil, nil, fmt.Errorf("tracefile: map file homes page %d at node %d, target machine has %d nodes", q, n, nodes)
			}
			homes[q] = addr.NodeID(n)
		}
	} else {
		homes = roundRobinHomes(nodes, pages)
	}
	if e.m.Pages == nil {
		return rangeCheckedIdentity("mapfile", pages), homes, nil
	}
	for p, q := range e.m.Pages {
		if q < 0 || q >= pages {
			return nil, nil, fmt.Errorf("tracefile: map file sends page %d to %d, outside the %d-page target segment", p, q, pages)
		}
	}
	pmap := e.m.Pages
	return func(p addr.PageNum) (addr.PageNum, error) {
		if int(p) >= len(pmap) {
			return 0, fmt.Errorf("tracefile: retarget: map file does not map page %d (covers %d pages)", p, len(pmap))
		}
		return addr.PageNum(pmap[p]), nil
	}, homes, nil
}

// PolicyByName resolves the built-in policy names the CLIs expose.
func PolicyByName(name string) (RemapPolicy, error) {
	switch name {
	case "", "identity":
		return Identity(), nil
	case "roundrobin", "rr":
		return RoundRobin(), nil
	case "modulo", "fold":
		return ModuloFold(), nil
	default:
		return nil, fmt.Errorf("tracefile: unknown remap policy %q (want identity, roundrobin, or modulo)", name)
	}
}

// CPUFoldPolicy selects how source CPUs are re-attributed when a
// retarget shrinks the CPU count.
type CPUFoldPolicy int

const (
	// FoldModulo attributes source CPU c to target CPU c % cpus: the
	// fold is strided, so each target CPU interleaves records from
	// source CPUs spread across the whole machine. This is the default
	// (and the only behavior earlier versions had).
	FoldModulo CPUFoldPolicy = iota
	// FoldInterleave folds contiguous source CPU groups onto each target
	// CPU: neighboring CPUs — a source node's worth at a time — land
	// together, preserving per-node reference locality for
	// asymmetric-machine studies. When the source count does not divide
	// evenly, the remainder spreads over the lowest-numbered target CPUs
	// (the first srcCPUs%cpus targets each absorb one extra source CPU),
	// so group sizes differ by at most one. When the CPU count grows or
	// stays equal it behaves exactly like FoldModulo.
	FoldInterleave
)

// String names the fold policy the way the CLI flag spells it.
func (p CPUFoldPolicy) String() string {
	if p == FoldInterleave {
		return "interleave"
	}
	return "modulo"
}

// CPUFoldByName resolves the fold-policy names the CLIs expose.
func CPUFoldByName(name string) (CPUFoldPolicy, error) {
	switch name {
	case "", "modulo", "mod":
		return FoldModulo, nil
	case "interleave", "block":
		return FoldInterleave, nil
	default:
		return 0, fmt.Errorf("tracefile: unknown cpu fold policy %q (want modulo or interleave)", name)
	}
}

// resolve returns the source-CPU to target-CPU map for a fold.
func (p CPUFoldPolicy) resolve(srcCPUs, cpus int) (func(int) int, error) {
	if p == FoldInterleave && srcCPUs > cpus {
		// Weighted contiguous groups: the first `big` target CPUs take
		// size+1 source CPUs each, the rest take size, so a 10->4 fold
		// yields groups 3,3,2,2 instead of rejecting the shape.
		size := srcCPUs / cpus
		big := srcCPUs % cpus
		boundary := big * (size + 1)
		return func(c int) int {
			if c < boundary {
				return c / (size + 1)
			}
			return big + (c-boundary)/size
		}, nil
	}
	return func(c int) int { return c % cpus }, nil
}

// RetargetSpec describes the target machine shape of a retarget. Zero
// values keep the source's shape, so a spec selects only the dimensions
// it changes; the block/page geometry always carries over (changing
// geometry re-splits every address, which is RetargetGeometry's job).
type RetargetSpec struct {
	// Nodes, CPUs, and Pages are the target machine shape; 0 keeps the
	// source header's value.
	Nodes, CPUs, Pages int
	// Policy maps pages and homes onto the target; nil means Identity.
	Policy RemapPolicy
	// CPUFold selects how streams fold when the CPU count shrinks; the
	// zero value is FoldModulo, the historical behavior.
	CPUFold CPUFoldPolicy
	// Name renames the retargeted workload; "" keeps the source name.
	Name string
}

// resolve fills the spec's zero shape fields from a source header and
// validates the explicit ones.
func (s RetargetSpec) resolve(h Header) (nodes, cpus, pages int, policy RemapPolicy, err error) {
	if s.Nodes < 0 || s.CPUs < 0 || s.Pages < 0 {
		return 0, 0, 0, nil, fmt.Errorf("tracefile: retarget shape %d nodes/%d cpus/%d pages has negative dimensions", s.Nodes, s.CPUs, s.Pages)
	}
	nodes, cpus, pages = s.Nodes, s.CPUs, s.Pages
	if nodes == 0 {
		nodes = h.Nodes
	}
	if cpus == 0 {
		cpus = h.CPUs
	}
	if pages == 0 {
		pages = h.SharedPages
	}
	// Replay and the harness both require CPUs to spread evenly across
	// nodes; reject here rather than writing a trace nothing can run.
	if nodes > 0 && cpus%nodes != 0 {
		return 0, 0, 0, nil, fmt.Errorf("tracefile: retarget to %d CPUs on %d nodes (not evenly divided)", cpus, nodes)
	}
	policy = s.Policy
	if policy == nil {
		policy = Identity()
	}
	return nodes, cpus, pages, policy, nil
}

// Retarget rewrites src onto the spec's machine shape: the page-home map
// is rebuilt by the spec's policy, every record's page is remapped
// through it, and records are re-attributed to target CPUs by the spec's
// fold policy (modulo by default) — folding streams together when the
// CPU count shrinks, leaving the extra streams empty when it grows.
// Records keep their order (the canonical round-robin interleaving),
// flags, offsets, and gaps. Returns the record count written.
func Retarget(dst io.Writer, src io.Reader, spec RetargetSpec) (int64, error) {
	return apply(dst, src, func(h Header) (Map, error) { return RetargetMap(h, spec) })
}

// RetargetMap is Retarget's pure form.
func RetargetMap(src Header, spec RetargetSpec) (Map, error) {
	nodes, cpus, pages, policy, err := spec.resolve(src)
	if err != nil {
		return Map{}, err
	}
	mapPage, homes, err := policy.Resolve(src, nodes, pages)
	if err != nil {
		return Map{}, err
	}
	foldCPU, err := spec.CPUFold.resolve(src.CPUs, cpus)
	if err != nil {
		return Map{}, err
	}
	nh := Header{
		Name:        src.Name,
		Geometry:    src.Geometry,
		CPUs:        cpus,
		Nodes:       nodes,
		SharedPages: pages,
		Homes:       homes,
	}
	if spec.Name != "" {
		nh.Name = spec.Name
	}
	if err := nh.Validate(); err != nil {
		return Map{}, err
	}
	return Map{Header: nh, Record: func(cpu int, r *trace.Ref) (int, error) {
		if !r.Barrier {
			q, err := mapPage(r.Page)
			if err != nil {
				return cpu, err
			}
			r.Page = q
		}
		cpu = foldCPU(cpu)
		return cpu, nh.checkRecord(cpu, r)
	}}, nil
}

// ---------------------------------------------------------------------
// Dilate.

// DilateSpec scales every record's compute gap by the rational factor
// Num/Den — modeling a faster (factor < 1) or slower (factor > 1)
// processor against fixed memory latencies. Gaps round to nearest and
// clamp at the format's 16-bit ceiling (or a tighter Clamp).
type DilateSpec struct {
	// Num/Den is the scale factor; both must be positive (a zero or
	// negative factor would erase the trace's compute structure rather
	// than dilate it, and is rejected).
	Num, Den int64
	// Clamp caps each scaled gap; 0 means the format maximum (65535).
	Clamp int
	// Name renames the dilated workload; "" keeps the source name. Sweeps
	// that register several dilations of one capture need distinct names.
	Name string
}

// maxRatioSide bounds a dilate factor's numerator and denominator:
// gaps are 16-bit, so finer rationals are meaningless, and the bound
// keeps gap*Num+Den/2 far from uint64 overflow (2^16 * 2^32 + 2^31).
const maxRatioSide = int64(1) << 32

// validate rejects degenerate factors and resolves the clamp.
func (s DilateSpec) validate() (clamp uint64, err error) {
	if s.Num <= 0 || s.Den <= 0 {
		return 0, fmt.Errorf("tracefile: dilate factor %d/%d must be positive", s.Num, s.Den)
	}
	if s.Num > maxRatioSide || s.Den > maxRatioSide {
		return 0, fmt.Errorf("tracefile: dilate factor %d/%d exceeds %d on a side", s.Num, s.Den, maxRatioSide)
	}
	if s.Clamp < 0 || s.Clamp > 0xFFFF {
		return 0, fmt.Errorf("tracefile: dilate clamp %d outside [0,65535]", s.Clamp)
	}
	clamp = 0xFFFF
	if s.Clamp != 0 {
		clamp = uint64(s.Clamp)
	}
	return clamp, nil
}

// ParseRatio parses a CLI-style rational factor: "2", "3/2", "1/4".
// Anything else — decimals, trailing junk, a missing side — is an
// error, never a silently truncated parse.
func ParseRatio(s string) (num, den int64, err error) {
	bad := func() (int64, int64, error) {
		return 0, 0, fmt.Errorf("tracefile: bad ratio %q (want N or N/D)", s)
	}
	numStr, denStr, ok := strings.Cut(s, "/")
	if num, err = strconv.ParseInt(numStr, 10, 64); err != nil {
		return bad()
	}
	den = 1
	if ok {
		if den, err = strconv.ParseInt(denStr, 10, 64); err != nil {
			return bad()
		}
	}
	return num, den, nil
}

// Dilate copies src to dst with every gap scaled by the spec's factor;
// pages, offsets, flags, and stream attribution are untouched. Returns
// the record count written.
func Dilate(dst io.Writer, src io.Reader, spec DilateSpec) (int64, error) {
	return apply(dst, src, func(h Header) (Map, error) { return DilateMap(h, spec) })
}

// DilateMap is Dilate's pure form.
func DilateMap(src Header, spec DilateSpec) (Map, error) {
	clamp, err := spec.validate()
	if err != nil {
		return Map{}, err
	}
	nh := src
	if spec.Name != "" {
		nh.Name = spec.Name
	}
	if err := nh.Validate(); err != nil {
		return Map{}, err
	}
	num, den := uint64(spec.Num), uint64(spec.Den)
	return Map{Header: nh, Record: func(cpu int, r *trace.Ref) (int, error) {
		if r.Gap != 0 {
			g := (uint64(r.Gap)*num + den/2) / den
			if g > clamp {
				g = clamp
			}
			r.Gap = uint16(g)
		}
		return cpu, nh.checkRecord(cpu, r)
	}}, nil
}

// ---------------------------------------------------------------------
// Diff.

// Divergence pinpoints one differing record between two traces.
type Divergence struct {
	// CPU and Index locate the record: Index is the 0-based per-CPU
	// record position (barriers count as records).
	CPU   int
	Index int64
	// A and B are the records at that position; when one stream ended
	// early the corresponding Ended flag is set and its record is zero.
	A, B           trace.Ref
	AEnded, BEnded bool
}

// String renders the divergence the way the CLI reports it.
func (d Divergence) String() string {
	side := func(r trace.Ref, ended bool) string {
		if ended {
			return "(stream ended)"
		}
		return refString(r)
	}
	return fmt.Sprintf("cpu %d record %d: %s vs %s", d.CPU, d.Index, side(d.A, d.AEnded), side(d.B, d.BEnded))
}

// refString renders one record compactly for diff output.
func refString(r trace.Ref) string {
	if r.Barrier {
		return fmt.Sprintf("{barrier gap=%d}", r.Gap)
	}
	rw := "R"
	if r.Write {
		rw = "W"
	}
	return fmt.Sprintf("{%s page=%d off=%d gap=%d}", rw, r.Page, r.Off, r.Gap)
}

// CPUDiff summarizes one CPU's stream comparison.
type CPUDiff struct {
	CPU int
	// ARecords and BRecords are the stream lengths on each side.
	ARecords, BRecords int64
	// Differing counts positions in the common prefix where the records
	// differ; a length mismatch is not included here.
	Differing int64
	// FirstIndex is the first differing or missing record's per-CPU
	// index, or -1 when the streams are identical.
	FirstIndex int64
}

// DiffResult is a trace comparison: either a shape mismatch (streams not
// compared) or a record-level walk with the first divergence and a
// per-CPU summary.
type DiffResult struct {
	// Identical is true when shapes match and every stream is
	// record-for-record equal.
	Identical bool
	// ShapeMismatch is set when the headers disagree on geometry, CPU or
	// node counts, segment size, or page homes; the record walk is
	// skipped, so First and PerCPU are empty.
	ShapeMismatch error
	// First is the earliest divergence in the canonical round-robin
	// order (nil when identical or shape-mismatched).
	First *Divergence
	// PerCPU has one entry per CPU (shape-matched diffs only).
	PerCPU []CPUDiff
	// Records is the total record count per side.
	ARecords, BRecords int64
}

// Diff walks two traces in the canonical round-robin order — the same
// interleaving CanonicalHash digests — comparing each CPU's streams
// record by record. Shapes are compared first: mismatched machines
// report the mismatch, not a meaningless record index. Both inputs are
// drained fully even after a divergence, so the per-CPU summary counts
// every difference and truncation anywhere in either file still errors.
func Diff(a, b io.Reader) (*DiffResult, error) {
	da, err := NewReader(a)
	if err != nil {
		return nil, fmt.Errorf("trace A: %w", err)
	}
	db, err := NewReader(b)
	if err != nil {
		return nil, fmt.Errorf("trace B: %w", err)
	}
	res := &DiffResult{}
	// sameShape formats mismatches second-argument-first, so pass B
	// first: the report then reads "A's value vs B's value", matching
	// the argument order of `diff a b`.
	if err := sameShape(db.Header(), da.Header()); err != nil {
		res.ShapeMismatch = err
		return res, nil
	}
	cpus := da.Header().CPUs
	res.PerCPU = make([]CPUDiff, cpus)
	for c := range res.PerCPU {
		res.PerCPU[c] = CPUDiff{CPU: c, FirstIndex: -1}
	}
	as, bs := da.Streams(), db.Streams()
	doneA, doneB := make([]bool, cpus), make([]bool, cpus)
	for live := cpus; live > 0; {
		live = 0
		for c := 0; c < cpus; c++ {
			s := &res.PerCPU[c]
			var ra, rb trace.Ref
			oka, okb := false, false
			if !doneA[c] {
				if ra, oka = as[c].Next(); !oka {
					doneA[c] = true
				} else {
					s.ARecords++
				}
			}
			if !doneB[c] {
				if rb, okb = bs[c].Next(); !okb {
					doneB[c] = true
				} else {
					s.BRecords++
				}
			}
			if oka || okb {
				live++
			}
			if oka && okb {
				if ra != rb {
					s.Differing++
					idx := s.ARecords - 1
					if s.FirstIndex < 0 {
						s.FirstIndex = idx
					}
					if res.First == nil {
						res.First = &Divergence{CPU: c, Index: idx, A: ra, B: rb}
					}
				}
				continue
			}
			if oka != okb && s.FirstIndex < 0 {
				// One stream ran out: the divergence index is the short
				// side's length (== the long side's current record).
				var d Divergence
				if oka {
					d = Divergence{CPU: c, Index: s.ARecords - 1, A: ra, BEnded: true}
				} else {
					d = Divergence{CPU: c, Index: s.BRecords - 1, B: rb, AEnded: true}
				}
				s.FirstIndex = d.Index
				if res.First == nil {
					res.First = &d
				}
			}
		}
	}
	if err := da.Err(); err != nil {
		return nil, fmt.Errorf("trace A: %w", err)
	}
	if err := db.Err(); err != nil {
		return nil, fmt.Errorf("trace B: %w", err)
	}
	res.Identical = true
	for c := range res.PerCPU {
		s := &res.PerCPU[c]
		res.ARecords += s.ARecords
		res.BRecords += s.BRecords
		if s.FirstIndex >= 0 {
			res.Identical = false
		}
	}
	return res, nil
}
