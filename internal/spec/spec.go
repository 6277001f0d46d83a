// Package spec builds workloads from declarative JSON descriptions, so a
// new memory-system scenario needs a file rather than a code change.
//
// A spec names memory regions (per-node or globally interleaved page
// ranges) and a sequence of phases; each phase repeats a list of steps
// that apply the same access-pattern primitives the built-in Table 3
// generators use (sweep, shared sweep, scatter, strided, windowed,
// rewrite, weighted-popularity draws, local compute, barrier). A phase
// may restrict its steps to a subset of nodes ("nodes": [0, 1]), and the
// "popular" op draws pages under a zipf or explicit-weight popularity
// distribution — the skewed reuse sets of Figure 5. The result is a
// regular workloads.Workload: it runs on the simulated machine, records
// to a trace file, and schedules through the experiment harness exactly
// like a catalog application.
//
// Example (a producer-consumer halo exchange with a hot shared table):
//
//	{
//	  "name": "halo",
//	  "regions": [
//	    {"name": "frames", "pages": 60, "placement": "node"},
//	    {"name": "table",  "pages": 8,  "placement": "global"}
//	  ],
//	  "phases": [
//	    {"iters": 4, "scaled": true, "steps": [
//	      {"op": "rewrite", "region": "frames", "density": 8, "gap": 6},
//	      {"op": "sweep",   "region": "frames", "from": "neighbor:1", "density": 6, "gap": 30},
//	      {"op": "shared",  "region": "table", "repeats": 2, "gap": 12},
//	      {"op": "compute", "refs": 1500, "gap": 250},
//	      {"op": "barrier"}
//	    ]}
//	  ]
//	}
package spec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"rnuma/internal/addr"
	"rnuma/internal/workloads"
)

// specSeed is the builder's built-in RNG seed for spec workloads; the
// spec's own Seed and the config's Seed are XORed in (all default to 0,
// so spec builds are bit-reproducible by default).
const specSeed = 0x5EC0DE

// Spec is a declarative workload description.
type Spec struct {
	// Name identifies the workload (harness registry, reports, traces).
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`

	// Seed perturbs the builder RNG (shuffle/scatter orders). 0 keeps the
	// package default, so identical specs build identical traces.
	Seed int64 `json:"seed,omitempty"`

	Regions []Region `json:"regions"`
	Phases  []Phase  `json:"phases"`
}

// Region is a named range of shared pages.
type Region struct {
	Name string `json:"name"`
	// Pages is the region size: pages per node for "node" placement,
	// total pages for "global" placement.
	Pages int `json:"pages"`
	// Placement is "node" (each node owns a contiguous slice, homed
	// there) or "global" (one slice with round-robin homes).
	Placement string `json:"placement"`
}

// Phase repeats its steps Iters times (each iteration ends where the
// steps say — typically with an explicit barrier step).
type Phase struct {
	// Iters is the repeat count (default 1). With Scaled, it multiplies
	// by the run's workload scale like the built-in generators' iteration
	// counts (minimum 2), so tests and full runs share one spec.
	Iters  int    `json:"iters,omitempty"`
	Scaled bool   `json:"scaled,omitempty"`
	Steps  []Step `json:"steps"`

	// Nodes restricts the phase's steps to a subset of nodes (empty =
	// all): producer-only phases, straggler studies, the lu-style load
	// imbalance of Section 5.5. Barrier steps remain global — every CPU
	// in the machine rendezvouses — so subset phases stay aligned with
	// the rest of the run. Node ids must exist on the simulated machine
	// (checked at build time against the config).
	Nodes []int `json:"nodes,omitempty"`
}

// Step is one access-pattern primitive applied by every node (except
// "barrier", which is global, and "compute", which is node-local).
type Step struct {
	// Op selects the primitive: sweep, shared, scatter, stride, windowed,
	// rewrite, compute, barrier.
	Op string `json:"op"`

	// Region names the target region (all ops except compute/barrier).
	Region string `json:"region,omitempty"`

	// From selects which node's slice of a "node" region each node
	// targets: "own" (default), "neighbor:<d>" (ring distance d),
	// "all-remote" (every other node's slice), or "all". "global"
	// regions target the whole region ("all", the default) or the node's
	// round-robin share ("share" — e.g. pre-sharing init writes that keep
	// pages classified read-only).
	From string `json:"from,omitempty"`

	// Hot restricts the selection to its first Hot pages (0 = all): the
	// skewed-popularity knob (Figure 5's hot reuse sets).
	Hot int `json:"hot,omitempty"`

	// Shuffle randomizes the page visit order per node per iteration
	// (irregular access, defeats sequential thrash).
	Shuffle bool `json:"shuffle,omitempty"`

	// Density is the blocks touched per page (default: the full page).
	// For rewrite it is the number of blocks dirtied.
	Density int `json:"density,omitempty"`

	// Repeats re-walks the selection (sweep/shared; default 1).
	Repeats int `json:"repeats,omitempty"`

	// Write makes the references stores.
	Write bool `json:"write,omitempty"`

	// Gap is the compute time (cycles) before each reference.
	Gap int `json:"gap,omitempty"`

	// Stride and Count shape the "stride" op: Count blocks per page at
	// the given block stride (FFT-style transpose reads).
	Stride int `json:"stride,omitempty"`
	Count  int `json:"count,omitempty"`

	// Window and Sweeps shape the "windowed" op: march through the
	// selection Window pages at a time, every CPU sweeping each window
	// Sweeps times (radix/fmm-style marching working sets).
	Window int `json:"window,omitempty"`
	Sweeps int `json:"sweeps,omitempty"`

	// Refs is the per-CPU reference count of the "compute" op.
	Refs int `json:"refs,omitempty"`

	// Dist, Picks, Theta, and Weights shape the "popular" op: each CPU
	// draws Picks pages from the selection under a weighted popularity
	// distribution and touches Density blocks of each draw. Dist is
	// "zipf" (rank-weighted 1/(rank+1)^Theta, Theta > 1; the first page
	// of the selection is the hottest) or "explicit" (relative Weights,
	// cycled over the selection when it is longer than the vector).
	Dist    string    `json:"dist,omitempty"`
	Picks   int       `json:"picks,omitempty"`
	Theta   float64   `json:"theta,omitempty"`
	Weights []float64 `json:"weights,omitempty"`
}

// Parse decodes and validates a spec. Unknown fields are errors, so typos
// in workload files fail loudly instead of silently changing the scenario.
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("spec: trailing data after the JSON document")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Load reads and parses a spec file.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

var validOps = map[string]bool{
	"sweep": true, "shared": true, "scatter": true, "stride": true,
	"windowed": true, "rewrite": true, "compute": true, "barrier": true,
	"popular": true,
}

// stepFields lists the knobs each op consumes. Any other field set on a
// step is a misplaced or typo'd knob: it would silently change nothing,
// so validation rejects it (the same contract DisallowUnknownFields
// enforces for unknown names).
var stepFields = map[string]map[string]bool{
	"barrier":  {},
	"compute":  fields("refs", "gap"),
	"sweep":    fields("region", "from", "hot", "shuffle", "density", "repeats", "write", "gap"),
	"shared":   fields("region", "from", "hot", "shuffle", "density", "repeats", "write", "gap"),
	"scatter":  fields("region", "from", "hot", "shuffle", "density", "write", "gap"),
	"stride":   fields("region", "from", "hot", "shuffle", "stride", "count", "write", "gap"),
	"windowed": fields("region", "from", "hot", "shuffle", "density", "window", "sweeps", "write", "gap"),
	"rewrite":  fields("region", "from", "hot", "shuffle", "density", "gap"),
	"popular":  fields("region", "from", "hot", "shuffle", "density", "dist", "picks", "theta", "weights", "write", "gap"),
}

func fields(names ...string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

// checkStepFields rejects knobs the step's op does not consume.
func checkStepFields(st Step) error {
	allowed := stepFields[st.Op]
	for _, f := range []struct {
		name string
		set  bool
	}{
		{"region", st.Region != ""}, {"from", st.From != ""},
		{"hot", st.Hot != 0}, {"shuffle", st.Shuffle},
		{"density", st.Density != 0}, {"repeats", st.Repeats != 0},
		{"write", st.Write}, {"gap", st.Gap != 0},
		{"stride", st.Stride != 0}, {"count", st.Count != 0},
		{"window", st.Window != 0}, {"sweeps", st.Sweeps != 0},
		{"refs", st.Refs != 0}, {"dist", st.Dist != ""},
		{"picks", st.Picks != 0}, {"theta", st.Theta != 0},
		{"weights", len(st.Weights) != 0},
	} {
		if f.set && !allowed[f.name] {
			return fmt.Errorf("field %q is not used by op %q", f.name, st.Op)
		}
	}
	return nil
}

// Validate checks structural consistency (machine-independent; sizing
// against a concrete geometry happens in Build).
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("spec: missing name")
	}
	if len(s.Regions) == 0 {
		return fmt.Errorf("spec %q: no regions", s.Name)
	}
	if len(s.Phases) == 0 {
		return fmt.Errorf("spec %q: no phases", s.Name)
	}
	regions := make(map[string]Region, len(s.Regions))
	for _, r := range s.Regions {
		if r.Name == "" {
			return fmt.Errorf("spec %q: region with no name", s.Name)
		}
		if _, dup := regions[r.Name]; dup {
			return fmt.Errorf("spec %q: duplicate region %q", s.Name, r.Name)
		}
		if r.Pages < 1 {
			return fmt.Errorf("spec %q: region %q needs at least 1 page", s.Name, r.Name)
		}
		if r.Placement != "node" && r.Placement != "global" {
			return fmt.Errorf("spec %q: region %q placement %q (want node or global)", s.Name, r.Name, r.Placement)
		}
		regions[r.Name] = r
	}
	for pi, ph := range s.Phases {
		if ph.Iters < 0 {
			return fmt.Errorf("spec %q: phase %d has negative iters", s.Name, pi)
		}
		if len(ph.Steps) == 0 {
			return fmt.Errorf("spec %q: phase %d has no steps", s.Name, pi)
		}
		seenNodes := make(map[int]bool, len(ph.Nodes))
		for _, n := range ph.Nodes {
			if n < 0 {
				return fmt.Errorf("spec %q: phase %d names negative node %d", s.Name, pi, n)
			}
			if seenNodes[n] {
				return fmt.Errorf("spec %q: phase %d names node %d twice", s.Name, pi, n)
			}
			seenNodes[n] = true
		}
		for si, st := range ph.Steps {
			where := fmt.Sprintf("spec %q: phase %d step %d (%s)", s.Name, pi, si, st.Op)
			if !validOps[st.Op] {
				return fmt.Errorf("spec %q: phase %d step %d: unknown op %q", s.Name, pi, si, st.Op)
			}
			if err := checkStepFields(st); err != nil {
				return fmt.Errorf("%s: %w", where, err)
			}
			switch st.Op {
			case "barrier":
				continue
			case "compute":
				if st.Refs < 1 {
					return fmt.Errorf("%s: needs refs >= 1", where)
				}
				continue
			}
			r, ok := regions[st.Region]
			if !ok {
				return fmt.Errorf("%s: unknown region %q", where, st.Region)
			}
			if _, err := parseFrom(st.From, r); err != nil {
				return fmt.Errorf("%s: %w", where, err)
			}
			if st.Hot < 0 || st.Density < 0 || st.Repeats < 0 || st.Gap < 0 {
				return fmt.Errorf("%s: negative field", where)
			}
			if n := staticSelectable(st, r); n > 0 && st.Hot > n {
				return fmt.Errorf("%s: hot %d exceeds the %d selectable pages of region %q", where, st.Hot, n, r.Name)
			}
			if st.Gap > 0xFFFF {
				return fmt.Errorf("%s: gap %d overflows 16 bits", where, st.Gap)
			}
			if st.Op == "stride" && (st.Stride < 1 || st.Count < 1) {
				return fmt.Errorf("%s: needs stride >= 1 and count >= 1", where)
			}
			if st.Op == "windowed" && st.Window < 1 {
				return fmt.Errorf("%s: needs window >= 1", where)
			}
			if st.Op == "popular" {
				if err := validatePopular(st); err != nil {
					return fmt.Errorf("%s: %w", where, err)
				}
			}
		}
	}
	return nil
}

// validatePopular checks the "popular" op's distribution fields.
func validatePopular(st Step) error {
	if st.Picks < 1 {
		return fmt.Errorf("needs picks >= 1")
	}
	switch st.Dist {
	case "zipf":
		if !(st.Theta > 1) {
			return fmt.Errorf("zipf needs theta > 1, got %v", st.Theta)
		}
		if len(st.Weights) != 0 {
			return fmt.Errorf("zipf takes theta, not weights")
		}
	case "explicit":
		if st.Theta != 0 {
			return fmt.Errorf("explicit takes weights, not theta")
		}
		if len(st.Weights) == 0 {
			return fmt.Errorf("explicit needs at least one weight")
		}
		for i, w := range st.Weights {
			if !(w > 0) || math.IsInf(w, 0) {
				return fmt.Errorf("weight %d is %v (want finite > 0)", i, w)
			}
		}
	default:
		return fmt.Errorf("unknown dist %q (want zipf or explicit)", st.Dist)
	}
	return nil
}

// staticSelectable returns the step's selection size when it is knowable
// without a machine config: a global region targeted whole, or a node
// region targeted at a single node's slice (own/neighbor). Selections
// whose size depends on the node count (all/all-remote on node regions,
// share on global ones) return 0 and are sized at build time instead.
func staticSelectable(st Step, r Region) int {
	if r.Placement == "global" {
		if st.From == "" || st.From == "all" {
			return r.Pages
		}
		return 0
	}
	if st.From == "" || st.From == "own" || strings.HasPrefix(st.From, "neighbor:") {
		return r.Pages
	}
	return 0
}

// fromSel is a parsed From selector.
type fromSel struct {
	kind string // own, neighbor, all-remote, all
	dist int    // neighbor distance
}

func parseFrom(from string, r Region) (fromSel, error) {
	if r.Placement == "global" {
		switch from {
		case "", "all":
			return fromSel{kind: "all"}, nil
		case "share":
			return fromSel{kind: "share"}, nil
		}
		return fromSel{}, fmt.Errorf("global region %q only supports from=all or from=share, got %q", r.Name, from)
	}
	switch {
	case from == "" || from == "own":
		return fromSel{kind: "own"}, nil
	case from == "all-remote":
		return fromSel{kind: "all-remote"}, nil
	case from == "all":
		return fromSel{kind: "all"}, nil
	case strings.HasPrefix(from, "neighbor:"):
		d, err := strconv.Atoi(strings.TrimPrefix(from, "neighbor:"))
		if err != nil || d < 1 {
			return fromSel{}, fmt.Errorf("bad neighbor distance in %q", from)
		}
		return fromSel{kind: "neighbor", dist: d}, nil
	default:
		return fromSel{}, fmt.Errorf("bad from %q (want own, neighbor:<d>, all-remote, or all)", from)
	}
}

// checkSegment bounds the shared segment the regions ask for (pages per
// node times nodes, plus global pages) before anything is allocated: the
// builder's home map and the machine's directory and per-page state are
// sized from it, so an uploaded spec must not be able to request a
// billion pages. Each term is checked before it is added, so the sum
// cannot overflow.
func (s *Spec) checkSegment(cfg workloads.Config) error {
	total := 0
	for _, r := range s.Regions {
		pages := r.Pages
		err := cfg.Geometry.CheckSegment(pages)
		if err == nil && r.Placement == "node" {
			pages *= cfg.Nodes
			err = cfg.Geometry.CheckSegment(pages)
		}
		if err == nil {
			total += pages
			err = cfg.Geometry.CheckSegment(total)
		}
		if err != nil {
			return fmt.Errorf("spec %q: region %q overflows the shared segment: %w", s.Name, r.Name, err)
		}
	}
	return nil
}

// builtRegion is a region materialized against a machine config.
type builtRegion struct {
	r       Region
	global  []addr.PageNum   // placement "global"
	perNode [][]addr.PageNum // placement "node"
}

// Build generates the workload for a machine configuration.
func (s *Spec) Build(cfg workloads.Config) (*workloads.Workload, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := s.checkSegment(cfg); err != nil {
		return nil, err
	}
	b := workloads.NewBuilder(cfg, specSeed^s.Seed)
	regions := make(map[string]*builtRegion, len(s.Regions))
	for _, r := range s.Regions {
		br := &builtRegion{r: r}
		if r.Placement == "global" {
			br.global = b.AllocGlobal(r.Pages)
		} else {
			br.perNode = make([][]addr.PageNum, cfg.Nodes)
			for n := 0; n < cfg.Nodes; n++ {
				br.perNode[n] = b.Alloc(addr.NodeID(n), r.Pages)
			}
		}
		regions[r.Name] = br
	}
	for pi, ph := range s.Phases {
		nodes, err := phaseNodes(ph, cfg)
		if err != nil {
			return nil, fmt.Errorf("spec %q: phase %d: %w", s.Name, pi, err)
		}
		iters := ph.Iters
		if iters == 0 {
			iters = 1
		}
		if ph.Scaled {
			iters = cfg.Iters(iters)
		}
		for it := 0; it < iters; it++ {
			for _, st := range ph.Steps {
				if err := applyStep(b, cfg, regions, st, nodes); err != nil {
					return nil, fmt.Errorf("spec %q: %w", s.Name, err)
				}
			}
		}
	}
	desc := s.Description
	if desc == "" {
		desc = "declarative spec workload"
	}
	return b.Finish(s.Name, desc, "(spec)"), nil
}

// selection resolves the pages a node targets for a step. A hot count
// exceeding the selection is an error, not a silent no-op: the knob names
// a working-set size, and a typo'd one must not quietly mean "all pages".
func selection(b *workloads.Builder, cfg workloads.Config, br *builtRegion, sel fromSel, st Step, n addr.NodeID) ([]addr.PageNum, error) {
	var pages []addr.PageNum
	switch sel.kind {
	case "all":
		if br.r.Placement == "global" {
			pages = br.global
		} else {
			for d := 0; d < cfg.Nodes; d++ {
				pages = append(pages, br.perNode[b.Neighbor(n, d)]...)
			}
		}
	case "share":
		pages = workloads.Share(br.global, int(n), cfg.Nodes)
	case "own":
		pages = br.perNode[n]
	case "neighbor":
		pages = br.perNode[b.Neighbor(n, sel.dist%cfg.Nodes)]
	case "all-remote":
		for d := 1; d < cfg.Nodes; d++ {
			pages = append(pages, br.perNode[b.Neighbor(n, d)]...)
		}
	}
	if st.Hot > 0 {
		if st.Hot > len(pages) {
			return nil, fmt.Errorf("step %q on region %q: hot %d exceeds the %d selected pages", st.Op, st.Region, st.Hot, len(pages))
		}
		pages = pages[:st.Hot]
	}
	if st.Shuffle {
		shuffled := append([]addr.PageNum(nil), pages...)
		b.Rand().Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		pages = shuffled
	}
	return pages, nil
}

// phaseNodes resolves a phase's node subset against the machine config
// (empty = every node).
func phaseNodes(ph Phase, cfg workloads.Config) ([]addr.NodeID, error) {
	if len(ph.Nodes) == 0 {
		all := make([]addr.NodeID, cfg.Nodes)
		for n := range all {
			all[n] = addr.NodeID(n)
		}
		return all, nil
	}
	out := make([]addr.NodeID, 0, len(ph.Nodes))
	for _, n := range ph.Nodes {
		if n >= cfg.Nodes {
			return nil, fmt.Errorf("names node %d, machine has %d nodes", n, cfg.Nodes)
		}
		out = append(out, addr.NodeID(n))
	}
	return out, nil
}

// applyStep emits one step's references for every node in the phase's
// subset (barriers stay global).
func applyStep(b *workloads.Builder, cfg workloads.Config, regions map[string]*builtRegion, st Step, nodes []addr.NodeID) error {
	switch st.Op {
	case "barrier":
		b.Barrier()
		return nil
	case "compute":
		for _, n := range nodes {
			b.LocalCompute(n, st.Refs, st.Gap)
		}
		return nil
	}
	br := regions[st.Region]
	sel, err := parseFrom(st.From, br.r)
	if err != nil {
		return err
	}
	density := st.Density
	if density == 0 || density > b.BlocksPerPage() {
		density = b.BlocksPerPage()
	}
	repeats := st.Repeats
	if repeats == 0 {
		repeats = 1
	}
	sweeps := st.Sweeps
	if sweeps == 0 {
		sweeps = 1
	}
	for _, n := range nodes {
		pages, err := selection(b, cfg, br, sel, st, n)
		if err != nil {
			return err
		}
		switch st.Op {
		case "sweep":
			b.Sweep(n, pages, density, repeats, st.Write, st.Gap)
		case "shared":
			b.SweepShared(n, pages, density, repeats, st.Write, st.Gap)
		case "scatter":
			b.Scatter(n, pages, density, st.Write, st.Gap)
		case "stride":
			stride, count, bpp := st.Stride, st.Count, b.BlocksPerPage()
			offs := func(p addr.PageNum) []int {
				base := int(uint32(p)*37) & (bpp - 1)
				out := make([]int, 0, count)
				for k := 0; k < count; k++ {
					out = append(out, (base+k*stride)&(bpp-1))
				}
				return out
			}
			b.SweepOffsets(n, pages, offs, st.Write, st.Gap)
		case "windowed":
			b.Windowed(n, pages, func(p addr.PageNum) []int { return b.RotContig(p, density) },
				st.Window, sweeps, st.Write, st.Gap)
		case "rewrite":
			b.Rewrite(n, pages, density, st.Gap)
		case "popular":
			var sample func() int
			if st.Dist == "zipf" {
				sample = b.ZipfSampler(st.Theta, len(pages))
			} else {
				sample = b.WeightedSampler(st.Weights, len(pages))
			}
			b.Popular(n, pages, sample, st.Picks, density, st.Write, st.Gap)
		}
	}
	return nil
}
