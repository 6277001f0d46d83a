package workloads

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"rnuma/internal/addr"
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
	// PagesByNode overrides Pages for the first nodes of a "node" region,
	// in node order (lu's larger panels on nodes 0 and 1); nodes past the
	// list, and entries past the machine, fall back to Pages.
	PagesByNode []int `json:"pagesByNode,omitempty"`
	// Placement is "node" (each node owns a contiguous slice, homed
	// there) or "global" (one slice with round-robin homes).
	Placement string `json:"placement"`
}

// Phase repeats its steps Iters times (each iteration ends where the
// steps say — typically with an explicit barrier step).
type Phase struct {
	// Iters is the repeat count (default 1). With Scaled, it multiplies
	// by the run's workload scale (minimum 2, or MinIters when that is
	// larger), so tests and full runs share one spec.
	Iters    int    `json:"iters,omitempty"`
	Scaled   bool   `json:"scaled,omitempty"`
	MinIters int    `json:"minIters,omitempty"`
	Steps    []Step `json:"steps"`

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
	// rewrite, popular, select, compute, barrier.
	Op string `json:"op"`

	// Region names the target region (all ops except compute/barrier).
	Region string `json:"region,omitempty"`

	// From selects which node's slice of a "node" region each node
	// targets: "own" (default), "neighbor:<d>" (ring distance d, negative
	// going the other way), "all-remote" (every other node's slice), or
	// "all". "global" regions target the whole region ("all", the
	// default) or the node's round-robin share ("share" — e.g.
	// pre-sharing init writes that keep pages classified read-only).
	// "selection" (either placement) reuses the node's pages from the
	// phase's latest "select" step on the region. Selectors joined by
	// "+" concatenate their slices ("neighbor:1+neighbor:-1").
	From string `json:"from,omitempty"`

	// Each applies the step to every slice of the selection apart (one
	// per node for all and all-remote, one per joined selector), cutting
	// each slice by Hot, Percent and Range; otherwise the slices join
	// into one list first.
	Each bool `json:"each,omitempty"`

	// Hot restricts the selection to its first Hot pages (0 = all): the
	// skewed-popularity knob (Figure 5's hot reuse sets).
	Hot int `json:"hot,omitempty"`

	// Percent keeps the first Percent% of the selection (rounded down).
	Percent int `json:"percent,omitempty"`

	// Range is a Python-style slice of the selection, [lo] or [lo, hi]:
	// negative indices count from the end, and bounds clamp to the list.
	// With Stagger, node n's slice starts Stagger·n pages later, wrapping
	// modulo the pages the slice leaves out.
	Range   []int `json:"range,omitempty"`
	Stagger int   `json:"stagger,omitempty"`

	// Shuffle randomizes the page visit order per node per iteration
	// (irregular access, defeats sequential thrash). It applies after
	// the cuts above.
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
	// Sweeps times (radix/fmm-style marching working sets). Shift starts
	// node n's blocks Shift·n blocks further into each page (radix's
	// per-writer slice of every bucket page).
	Window int `json:"window,omitempty"`
	Sweeps int `json:"sweeps,omitempty"`
	Shift  int `json:"shift,omitempty"`

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

// stepFields lists the knobs each op consumes. Any other field set on a
// step is a misplaced or typo'd knob: it would silently change nothing,
// so validation rejects it (the same contract DisallowUnknownFields
// enforces for unknown names).
var stepFields = func() map[string]map[string]bool {
	const sel = "region from hot percent range stagger shuffle "
	m := make(map[string]map[string]bool)
	for op, names := range map[string]string{
		"barrier":  "",
		"compute":  "refs gap",
		"select":   sel,
		"sweep":    sel + "each density repeats write gap",
		"shared":   sel + "each density repeats write gap",
		"scatter":  sel + "each density write gap",
		"stride":   sel + "each stride count write gap",
		"windowed": sel + "each density window sweeps shift write gap",
		"rewrite":  sel + "each density gap",
		"popular":  sel + "each density dist picks theta weights write gap",
	} {
		m[op] = make(map[string]bool)
		for _, f := range strings.Fields(names) {
			m[op][f] = true
		}
	}
	return m
}()

// checkStepFields rejects knobs the step's op does not consume.
func checkStepFields(st Step) error {
	allowed := stepFields[st.Op]
	for _, f := range []struct {
		name string
		set  bool
	}{
		{"region", st.Region != ""}, {"from", st.From != ""},
		{"each", st.Each}, {"hot", st.Hot != 0},
		{"percent", st.Percent != 0}, {"range", st.Range != nil},
		{"stagger", st.Stagger != 0}, {"shuffle", st.Shuffle},
		{"density", st.Density != 0}, {"repeats", st.Repeats != 0},
		{"write", st.Write}, {"gap", st.Gap != 0},
		{"stride", st.Stride != 0}, {"count", st.Count != 0},
		{"window", st.Window != 0}, {"sweeps", st.Sweeps != 0},
		{"shift", st.Shift != 0}, {"refs", st.Refs != 0},
		{"dist", st.Dist != ""}, {"picks", st.Picks != 0},
		{"theta", st.Theta != 0}, {"weights", len(st.Weights) != 0},
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
		if r.Pages < 1 || slices.ContainsFunc(r.PagesByNode, func(p int) bool { return p < 1 }) {
			return fmt.Errorf("spec %q: region %q needs at least 1 page", s.Name, r.Name)
		}
		if r.Placement != "node" && r.Placement != "global" {
			return fmt.Errorf("spec %q: region %q placement %q (want node or global)", s.Name, r.Name, r.Placement)
		}
		if r.Placement == "global" && r.PagesByNode != nil {
			return fmt.Errorf("spec %q: region %q: pagesByNode needs node placement", s.Name, r.Name)
		}
		regions[r.Name] = r
	}
	for pi, ph := range s.Phases {
		if ph.Iters < 0 || ph.MinIters < 0 {
			return fmt.Errorf("spec %q: phase %d has negative iters", s.Name, pi)
		}
		if ph.MinIters != 0 && !ph.Scaled {
			return fmt.Errorf("spec %q: phase %d: minIters needs scaled", s.Name, pi)
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
		selected := make(map[string]bool) // regions an earlier select step chose from
		for si, st := range ph.Steps {
			where := fmt.Sprintf("spec %q: phase %d step %d (%s)", s.Name, pi, si, st.Op)
			if _, ok := stepFields[st.Op]; !ok {
				return fmt.Errorf("spec %q: phase %d step %d: unknown op %q", s.Name, pi, si, st.Op)
			}
			if err := checkStepFields(st); err != nil {
				return fmt.Errorf("%s: %w", where, err)
			}
			if st.Hot < 0 || st.Percent < 0 || st.Stagger < 0 || st.Density < 0 || st.Repeats < 0 ||
				st.Sweeps < 0 || st.Shift < 0 || st.Gap < 0 {
				return fmt.Errorf("%s: negative field", where)
			}
			if st.Gap > 0xFFFF {
				return fmt.Errorf("%s: gap %d overflows 16 bits", where, st.Gap)
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
			sels, err := parseFrom(st.From, r)
			if err != nil {
				return fmt.Errorf("%s: %w", where, err)
			}
			if slices.Contains(sels, fromSel{kind: "selection"}) && !selected[r.Name] {
				return fmt.Errorf("%s: from selection needs an earlier select step on region %q in the phase", where, r.Name)
			}
			if n := staticSelectable(st, r); n > 0 && st.Hot > n {
				return fmt.Errorf("%s: hot %d exceeds the %d selectable pages of region %q", where, st.Hot, n, r.Name)
			}
			if st.Percent > 100 {
				return fmt.Errorf("%s: percent %d exceeds 100", where, st.Percent)
			}
			if st.Range != nil && len(st.Range) != 1 && len(st.Range) != 2 {
				return fmt.Errorf("%s: range needs [lo] or [lo, hi], got %d bounds", where, len(st.Range))
			}
			if st.Stagger != 0 && st.Range == nil {
				return fmt.Errorf("%s: stagger needs a range", where)
			}
			switch st.Op {
			case "select":
				selected[r.Name] = true
			case "stride":
				if st.Stride < 1 || st.Count < 1 {
					return fmt.Errorf("%s: needs stride >= 1 and count >= 1", where)
				}
			case "windowed":
				if st.Window < 1 {
					return fmt.Errorf("%s: needs window >= 1", where)
				}
			case "popular":
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
// without a machine config: a global region targeted whole, or one
// node's slice (own/neighbor) of a node region whose slices all have
// Pages pages. Other selections return 0 and are sized at build time.
func staticSelectable(st Step, r Region) int {
	switch {
	case strings.Contains(st.From, "+"):
		return 0
	case r.Placement == "global":
		if st.From == "" || st.From == "all" {
			return r.Pages
		}
	case r.PagesByNode == nil && (st.From == "" || st.From == "own" || strings.HasPrefix(st.From, "neighbor:")):
		return r.Pages
	}
	return 0
}

// fromSel is one parsed From selector.
type fromSel struct {
	kind string // own, neighbor, all-remote, all, share, selection
	dist int    // neighbor distance
}

// parseFrom parses a From value: one selector, or several joined by "+".
func parseFrom(from string, r Region) ([]fromSel, error) {
	var sels []fromSel
	for _, f := range strings.Split(from, "+") {
		sel, err := parseSel(f, r)
		if err != nil {
			return nil, err
		}
		sels = append(sels, sel)
	}
	return sels, nil
}

func parseSel(from string, r Region) (fromSel, error) {
	if from == "selection" {
		return fromSel{kind: "selection"}, nil
	}
	if r.Placement == "global" {
		switch from {
		case "", "all":
			return fromSel{kind: "all"}, nil
		case "share":
			return fromSel{kind: "share"}, nil
		}
		return fromSel{}, fmt.Errorf("global region %q only supports from=all, share or selection, got %q", r.Name, from)
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
		if err != nil || d == 0 {
			return fromSel{}, fmt.Errorf("bad neighbor distance in %q", from)
		}
		return fromSel{kind: "neighbor", dist: d}, nil
	default:
		return fromSel{}, fmt.Errorf("bad from %q (want own, neighbor:<d>, all-remote, all or selection)", from)
	}
}

// nodePages returns a region's page count on node n.
func (r Region) nodePages(n int) int {
	if n < len(r.PagesByNode) {
		return r.PagesByNode[n]
	}
	return r.Pages
}

// checkSegment bounds the shared segment the regions ask for (every
// node's pages, plus global pages) before anything is allocated: the
// builder's home map and the machine's directory and per-page state are
// sized from it, so an uploaded spec must not be able to request a
// billion pages. Each term is checked before it is added, so the sum
// cannot overflow.
func (s *Spec) checkSegment(cfg Config) error {
	total := 0
	for _, r := range s.Regions {
		parts := 1
		if r.Placement == "node" {
			parts = cfg.Nodes
		}
		for n := 0; n < parts; n++ {
			err := cfg.Geometry.CheckSegment(r.nodePages(n))
			if err == nil {
				total += r.nodePages(n)
				err = cfg.Geometry.CheckSegment(total)
			}
			if err != nil {
				return fmt.Errorf("spec %q: region %q overflows the shared segment: %w", s.Name, r.Name, err)
			}
		}
	}
	return nil
}

// builtRegion is a region materialized against a machine config.
type builtRegion struct {
	r        Region
	global   []addr.PageNum   // placement "global"
	perNode  [][]addr.PageNum // placement "node"
	selected [][]addr.PageNum // by node: the latest select step's pages
}

// Build generates the workload for a machine configuration.
func (s *Spec) Build(cfg Config) (*Workload, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := s.checkSegment(cfg); err != nil {
		return nil, err
	}
	b := newBuilder(cfg, specSeed^s.Seed)
	regions := make(map[string]*builtRegion, len(s.Regions))
	for _, r := range s.Regions {
		br := &builtRegion{r: r, selected: make([][]addr.PageNum, cfg.Nodes)}
		if r.Placement == "global" {
			br.global = b.allocGlobal(r.Pages)
		} else {
			br.perNode = make([][]addr.PageNum, cfg.Nodes)
			for n := range br.perNode {
				br.perNode[n] = b.alloc(addr.NodeID(n), r.nodePages(n))
			}
		}
		regions[r.Name] = br
	}
	for pi, ph := range s.Phases {
		nodes, err := phaseNodes(ph, cfg)
		if err != nil {
			return nil, fmt.Errorf("spec %q: phase %d: %w", s.Name, pi, err)
		}
		iters := max(ph.Iters, 1)
		if ph.Scaled {
			iters = max(cfg.iters(iters), ph.MinIters)
		}
		for it := 0; it < iters; it++ {
			for _, st := range ph.Steps {
				if err := b.apply(regions, st, nodes); err != nil {
					return nil, fmt.Errorf("spec %q: %w", s.Name, err)
				}
			}
		}
	}
	return b.finish(s.Name), nil
}

// phaseNodes resolves a phase's node subset against the machine config
// (empty = every node).
func phaseNodes(ph Phase, cfg Config) ([]addr.NodeID, error) {
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

// selection resolves the page lists a step targets for node n: the
// slices its From selectors name, joined into one list unless the step
// takes each apart, each list cut by Hot, Percent and Range and then
// shuffled. A hot count exceeding the list is an error, not a silent
// no-op: the knob names a working-set size, and a typo'd one must not
// quietly mean "all pages".
func (b *builder) selection(br *builtRegion, sels []fromSel, st Step, n addr.NodeID) ([][]addr.PageNum, error) {
	var lists [][]addr.PageNum
	for _, sel := range sels {
		switch sel.kind {
		case "all":
			if br.r.Placement == "global" {
				lists = append(lists, br.global)
				break
			}
			for d := 0; d < b.cfg.Nodes; d++ {
				lists = append(lists, br.perNode[b.neighbor(n, d)])
			}
		case "share":
			lists = append(lists, share(br.global, int(n), b.cfg.Nodes))
		case "own":
			lists = append(lists, br.perNode[n])
		case "neighbor":
			lists = append(lists, br.perNode[b.neighbor(n, sel.dist)])
		case "all-remote":
			for d := 1; d < b.cfg.Nodes; d++ {
				lists = append(lists, br.perNode[b.neighbor(n, d)])
			}
		case "selection":
			lists = append(lists, br.selected[n])
		}
	}
	if !st.Each && len(lists) != 1 {
		lists = [][]addr.PageNum{slices.Concat(lists...)}
	}
	for i, pages := range lists {
		if st.Hot > 0 {
			if st.Hot > len(pages) {
				return nil, fmt.Errorf("step %q on region %q: hot %d exceeds the %d selected pages", st.Op, st.Region, st.Hot, len(pages))
			}
			pages = pages[:st.Hot]
		}
		if st.Percent > 0 {
			pages = pages[:len(pages)*st.Percent/100]
		}
		if st.Range != nil {
			pages = cut(pages, st.Range, st.Stagger, n)
		}
		if st.Shuffle {
			pages = slices.Clone(pages)
			b.rng.Shuffle(len(pages), func(i, j int) { pages[i], pages[j] = pages[j], pages[i] })
		}
		lists[i] = pages
	}
	return lists, nil
}

// cut applies a Range slice to pages, staggered by node n.
func cut(pages []addr.PageNum, rng []int, stagger int, n addr.NodeID) []addr.PageNum {
	index := func(i int) int {
		if i < 0 {
			i += len(pages)
		}
		return min(max(i, 0), len(pages))
	}
	lo, hi := index(rng[0]), len(pages)
	if len(rng) == 2 {
		hi = max(index(rng[1]), lo)
	}
	if width, left := hi-lo, len(pages)-(hi-lo); stagger > 0 && left > 0 {
		lo = (lo + stagger%left*int(n)) % left
		hi = lo + width
	}
	return pages[lo:hi]
}

// apply emits one step's references for every node in the phase's
// subset (barriers stay global).
func (b *builder) apply(regions map[string]*builtRegion, st Step, nodes []addr.NodeID) error {
	switch st.Op {
	case "barrier":
		b.barrier()
		return nil
	case "compute":
		for _, n := range nodes {
			b.localCompute(n, st.Refs, st.Gap)
		}
		return nil
	}
	br := regions[st.Region]
	sels, err := parseFrom(st.From, br.r)
	if err != nil {
		return err
	}
	density := st.Density
	if density == 0 {
		density = b.bpp
	}
	o := b.dense(density)
	if st.Op == "stride" {
		o = offsets{count: st.Count, stride: st.Stride}
	}
	repeats, sweeps := max(st.Repeats, 1), max(st.Sweeps, 1)
	for _, n := range nodes {
		lists, err := b.selection(br, sels, st, n)
		if err != nil {
			return err
		}
		if st.Op == "select" {
			br.selected[n] = lists[0]
			continue
		}
		for _, pages := range lists {
			switch st.Op {
			case "sweep", "shared":
				b.walk(n, pages, o, repeats, st.Op == "shared", st.Write, st.Gap)
			case "stride":
				b.walk(n, pages, o, 1, false, st.Write, st.Gap)
			case "rewrite":
				b.walk(n, pages, o, 1, false, true, st.Gap)
			case "scatter":
				b.scatter(n, pages, o, st.Write, st.Gap)
			case "windowed":
				o.shift = st.Shift * int(n)
				for w := 0; w < len(pages); w += st.Window {
					b.walk(n, pages[w:min(w+st.Window, len(pages))], o, sweeps, true, st.Write, st.Gap)
				}
			case "popular":
				var sample func() int
				if st.Dist == "zipf" {
					sample = b.zipfSampler(st.Theta, len(pages))
				} else {
					sample = b.weightedSampler(st.Weights, len(pages))
				}
				b.popular(n, pages, sample, st.Picks, o, st.Write, st.Gap)
			}
		}
	}
	return nil
}
