package spec

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rnuma/internal/addr"
	"rnuma/internal/trace"
	"rnuma/internal/workloads"
)

const minimal = `{
  "name": "mini",
  "regions": [
    {"name": "a", "pages": 4, "placement": "node"},
    {"name": "g", "pages": 6, "placement": "global"}
  ],
  "phases": [
    {"iters": 2, "steps": [
      {"op": "sweep", "region": "a", "from": "neighbor:1", "density": 4, "gap": 10},
      {"op": "scatter", "region": "a", "from": "all-remote", "density": 2},
      {"op": "stride", "region": "g", "stride": 32, "count": 4},
      {"op": "windowed", "region": "g", "window": 3, "sweeps": 2, "density": 8},
      {"op": "shared", "region": "g", "repeats": 2, "write": true},
      {"op": "rewrite", "region": "a", "density": 2, "gap": 5},
      {"op": "compute", "refs": 20, "gap": 100},
      {"op": "barrier"}
    ]}
  ]
}`

func testCfg() workloads.Config {
	cfg := workloads.DefaultConfig()
	cfg.Nodes, cfg.CPUsPerNode, cfg.Scale = 4, 2, 0.1
	return cfg
}

func drain(w *workloads.Workload) [][]trace.Ref {
	out := make([][]trace.Ref, len(w.Streams))
	for i, s := range w.Streams {
		for {
			r, ok := s.Next()
			if !ok {
				break
			}
			out[i] = append(out[i], r)
		}
	}
	return out
}

func TestParseAndBuild(t *testing.T) {
	s, err := Parse([]byte(minimal))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	cfg := testCfg()
	w, err := s.Build(cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if w.Name != "mini" {
		t.Errorf("name = %q", w.Name)
	}
	if got, want := len(w.Streams), cfg.Nodes*cfg.CPUsPerNode; got != want {
		t.Fatalf("streams = %d, want %d", got, want)
	}
	// 2 local pages per CPU + 4 pages x 4 nodes + 6 global.
	if want := 2*cfg.Nodes*cfg.CPUsPerNode + 4*cfg.Nodes + 6; w.SharedPages != want {
		t.Errorf("shared pages = %d, want %d", w.SharedPages, want)
	}
	refs := drain(w)
	bpp := cfg.Geometry.BlocksPerPage()
	for c, rs := range refs {
		if len(rs) == 0 {
			t.Fatalf("cpu %d: empty stream", c)
		}
		barriers := 0
		for _, r := range rs {
			if r.Barrier {
				barriers++
				continue
			}
			if int(r.Page) >= w.SharedPages {
				t.Fatalf("cpu %d: page %d outside %d-page segment", c, r.Page, w.SharedPages)
			}
			if int(r.Off) >= bpp {
				t.Fatalf("cpu %d: offset %d outside page", c, r.Off)
			}
		}
		if barriers != 2 {
			t.Errorf("cpu %d: %d barriers, want 2", c, barriers)
		}
	}
}

func TestBuildDeterminismAndSeed(t *testing.T) {
	s, err := Parse([]byte(minimal))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testCfg()
	a, err := s.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := drain(a), drain(b)
	for c := range ra {
		if len(ra[c]) != len(rb[c]) {
			t.Fatalf("cpu %d: lengths differ across identical builds", c)
		}
		for i := range ra[c] {
			if ra[c][i] != rb[c][i] {
				t.Fatalf("cpu %d ref %d differs across identical builds", c, i)
			}
		}
	}
	// A different config seed must change the scatter order somewhere.
	cfg2 := cfg
	cfg2.Seed = 12345
	c2, err := s.Build(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	rc := drain(c2)
	same := true
	for c := range ra {
		for i := range ra[c] {
			if ra[c][i] != rc[c][i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seed produced identical streams (scatter order should change)")
	}
}

func TestScaledIters(t *testing.T) {
	tpl := `{"name":"s","regions":[{"name":"a","pages":2,"placement":"node"}],
	         "phases":[{"iters":10,"scaled":%v,"steps":[{"op":"barrier"}]}]}`
	count := func(scaled bool, scale float64) int {
		s, err := Parse([]byte(fmt.Sprintf(tpl, scaled)))
		if err != nil {
			t.Fatal(err)
		}
		cfg := testCfg()
		cfg.Scale = scale
		w, err := s.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, r := range drain(w)[0] {
			if r.Barrier {
				n++
			}
		}
		return n
	}
	if got := count(false, 0.1); got != 10 {
		t.Errorf("unscaled: %d iters, want 10", got)
	}
	if got := count(true, 0.5); got != 5 {
		t.Errorf("scaled 0.5: %d iters, want 5", got)
	}
	if got := count(true, 0.01); got != 2 {
		t.Errorf("scaled floor: %d iters, want 2", got)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		json string
		want string
	}{
		{"missing name", `{"regions":[{"name":"a","pages":1,"placement":"node"}],"phases":[{"steps":[{"op":"barrier"}]}]}`, "missing name"},
		{"no regions", `{"name":"x","phases":[{"steps":[{"op":"barrier"}]}]}`, "no regions"},
		{"no phases", `{"name":"x","regions":[{"name":"a","pages":1,"placement":"node"}]}`, "no phases"},
		{"dup region", `{"name":"x","regions":[{"name":"a","pages":1,"placement":"node"},{"name":"a","pages":1,"placement":"node"}],"phases":[{"steps":[{"op":"barrier"}]}]}`, "duplicate region"},
		{"bad placement", `{"name":"x","regions":[{"name":"a","pages":1,"placement":"left"}],"phases":[{"steps":[{"op":"barrier"}]}]}`, "placement"},
		{"zero pages", `{"name":"x","regions":[{"name":"a","pages":0,"placement":"node"}],"phases":[{"steps":[{"op":"barrier"}]}]}`, "at least 1 page"},
		{"unknown op", `{"name":"x","regions":[{"name":"a","pages":1,"placement":"node"}],"phases":[{"steps":[{"op":"jog"}]}]}`, "unknown op"},
		{"unknown region", `{"name":"x","regions":[{"name":"a","pages":1,"placement":"node"}],"phases":[{"steps":[{"op":"sweep","region":"b"}]}]}`, "unknown region"},
		{"bad from", `{"name":"x","regions":[{"name":"a","pages":1,"placement":"node"}],"phases":[{"steps":[{"op":"sweep","region":"a","from":"sideways"}]}]}`, "bad from"},
		{"neighbor zero", `{"name":"x","regions":[{"name":"a","pages":1,"placement":"node"}],"phases":[{"steps":[{"op":"sweep","region":"a","from":"neighbor:0"}]}]}`, "neighbor"},
		{"global from own", `{"name":"x","regions":[{"name":"g","pages":1,"placement":"global"}],"phases":[{"steps":[{"op":"sweep","region":"g","from":"own"}]}]}`, "global region"},
		{"gap overflow", `{"name":"x","regions":[{"name":"a","pages":1,"placement":"node"}],"phases":[{"steps":[{"op":"sweep","region":"a","gap":70000}]}]}`, "overflows"},
		{"stride missing", `{"name":"x","regions":[{"name":"a","pages":1,"placement":"node"}],"phases":[{"steps":[{"op":"stride","region":"a"}]}]}`, "stride"},
		{"windowed missing", `{"name":"x","regions":[{"name":"a","pages":1,"placement":"node"}],"phases":[{"steps":[{"op":"windowed","region":"a"}]}]}`, "window"},
		{"compute missing refs", `{"name":"x","regions":[{"name":"a","pages":1,"placement":"node"}],"phases":[{"steps":[{"op":"compute"}]}]}`, "refs"},
		{"empty phase", `{"name":"x","regions":[{"name":"a","pages":1,"placement":"node"}],"phases":[{"steps":[]}]}`, "no steps"},
		{"unknown field", `{"name":"x","regionz":[],"regions":[{"name":"a","pages":1,"placement":"node"}],"phases":[{"steps":[{"op":"barrier"}]}]}`, "unknown field"},
		{"not json", `{"name":`, ""},
		{"negative node", `{"name":"x","regions":[{"name":"a","pages":1,"placement":"node"}],"phases":[{"nodes":[-1],"steps":[{"op":"barrier"}]}]}`, "negative node"},
		{"dup node", `{"name":"x","regions":[{"name":"a","pages":1,"placement":"node"}],"phases":[{"nodes":[1,1],"steps":[{"op":"barrier"}]}]}`, "twice"},
		{"popular no picks", `{"name":"x","regions":[{"name":"a","pages":1,"placement":"node"}],"phases":[{"steps":[{"op":"popular","region":"a","dist":"zipf","theta":1.5}]}]}`, "picks"},
		{"popular bad dist", `{"name":"x","regions":[{"name":"a","pages":1,"placement":"node"}],"phases":[{"steps":[{"op":"popular","region":"a","dist":"flat","picks":5}]}]}`, "unknown dist"},
		{"zipf low theta", `{"name":"x","regions":[{"name":"a","pages":1,"placement":"node"}],"phases":[{"steps":[{"op":"popular","region":"a","dist":"zipf","theta":1.0,"picks":5}]}]}`, "theta"},
		{"zipf with weights", `{"name":"x","regions":[{"name":"a","pages":1,"placement":"node"}],"phases":[{"steps":[{"op":"popular","region":"a","dist":"zipf","theta":1.5,"picks":5,"weights":[1]}]}]}`, "not weights"},
		{"explicit no weights", `{"name":"x","regions":[{"name":"a","pages":1,"placement":"node"}],"phases":[{"steps":[{"op":"popular","region":"a","dist":"explicit","picks":5}]}]}`, "weight"},
		{"explicit bad weight", `{"name":"x","regions":[{"name":"a","pages":1,"placement":"node"}],"phases":[{"steps":[{"op":"popular","region":"a","dist":"explicit","picks":5,"weights":[1,-2]}]}]}`, "weight 1"},
		{"dist on sweep", `{"name":"x","regions":[{"name":"a","pages":1,"placement":"node"}],"phases":[{"steps":[{"op":"sweep","region":"a","dist":"zipf"}]}]}`, "not used"},
		{"window on sweep", `{"name":"x","regions":[{"name":"a","pages":1,"placement":"node"}],"phases":[{"steps":[{"op":"sweep","region":"a","window":3}]}]}`, "not used"},
		{"repeats on scatter", `{"name":"x","regions":[{"name":"a","pages":1,"placement":"node"}],"phases":[{"steps":[{"op":"scatter","region":"a","repeats":2}]}]}`, "not used"},
		{"region on compute", `{"name":"x","regions":[{"name":"a","pages":1,"placement":"node"}],"phases":[{"steps":[{"op":"compute","refs":5,"region":"a"}]}]}`, "not used"},
		{"gap on barrier", `{"name":"x","regions":[{"name":"a","pages":1,"placement":"node"}],"phases":[{"steps":[{"op":"barrier","gap":5}]}]}`, "not used"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.json))
			if err == nil {
				t.Fatal("invalid spec accepted")
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestPhaseNodeSubset pins the per-phase node-subset semantics: only the
// named nodes' CPUs issue the phase's references, and barriers remain
// global so every CPU still rendezvouses.
func TestPhaseNodeSubset(t *testing.T) {
	src := `{
	  "name": "subset",
	  "regions": [{"name": "a", "pages": 4, "placement": "node"}],
	  "phases": [
	    {"nodes": [0, 2], "steps": [
	      {"op": "sweep", "region": "a", "density": 2},
	      {"op": "compute", "refs": 10},
	      {"op": "barrier"}
	    ]}
	  ]
	}`
	s, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testCfg() // 4 nodes x 2 CPUs
	w, err := s.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	refs := drain(w)
	for c, rs := range refs {
		node := c / cfg.CPUsPerNode
		var work, barriers int
		for _, r := range rs {
			if r.Barrier {
				barriers++
			} else {
				work++
			}
		}
		if barriers != 1 {
			t.Errorf("cpu %d: %d barriers, want 1 (barriers are global)", c, barriers)
		}
		inSubset := node == 0 || node == 2
		if inSubset && work == 0 {
			t.Errorf("cpu %d (node %d): in subset but issued no references", c, node)
		}
		if !inSubset && work != 0 {
			t.Errorf("cpu %d (node %d): outside subset but issued %d references", c, node, work)
		}
	}

	// Node ids beyond the machine are a build-time error.
	bad, err := Parse([]byte(strings.Replace(src, `"nodes": [0, 2]`, `"nodes": [0, 9]`, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bad.Build(cfg); err == nil || !strings.Contains(err.Error(), "node 9") {
		t.Errorf("out-of-range phase node not rejected at build: %v", err)
	}
}

// TestPopularDistributions checks the weighted-draw op: zipf draws skew
// heavily toward the head of the selection, explicit weights shape the
// draw mix, and builds stay deterministic.
func TestPopularDistributions(t *testing.T) {
	build := func(body string) map[int]int {
		src := fmt.Sprintf(`{
		  "name": "pop",
		  "regions": [{"name": "g", "pages": 16, "placement": "global"}],
		  "phases": [{"steps": [%s]}]
		}`, body)
		s, err := Parse([]byte(src))
		if err != nil {
			t.Fatal(err)
		}
		w, err := s.Build(testCfg())
		if err != nil {
			t.Fatal(err)
		}
		counts := make(map[int]int)
		for _, rs := range drain(w) {
			for _, r := range rs {
				counts[int(r.Page)]++
			}
		}
		return counts
	}

	// The global region's pages are allocated after the builder's local
	// pages (2 per CPU), so the selection starts at 2*nodes*cpus.
	base := 2 * testCfg().Nodes * testCfg().CPUsPerNode

	zipf := build(`{"op": "popular", "region": "g", "dist": "zipf", "theta": 2.0, "picks": 400, "density": 1}`)
	head, total := zipf[base], 0
	for _, c := range zipf {
		total += c
	}
	if total == 0 {
		t.Fatal("zipf draws produced no references")
	}
	if frac := float64(head) / float64(total); frac < 0.4 {
		t.Errorf("zipf theta=2 head page drew %.0f%% of references, want heavily skewed (>= 40%%)", 100*frac)
	}

	// Explicit weights: page 1 of the selection is 9x page 0, the rest ~0.
	expl := build(`{"op": "popular", "region": "g", "dist": "explicit", "weights": [1, 9, 0.0001], "picks": 600, "density": 1}`)
	if expl[base+1] < 4*expl[base] {
		t.Errorf("explicit weights [1,9,...]: page0=%d page1=%d, want page1 >> page0", expl[base], expl[base+1])
	}

	// Identical builds are bit-identical (the sampler draws from the
	// builder's seeded RNG).
	again := build(`{"op": "popular", "region": "g", "dist": "zipf", "theta": 2.0, "picks": 400, "density": 1}`)
	for p, c := range zipf {
		if again[p] != c {
			t.Fatalf("page %d drew %d then %d references across identical builds", p, c, again[p])
		}
	}
}

// TestExampleSpecs keeps the checked-in example files building against
// the default machine shape.
func TestExampleSpecs(t *testing.T) {
	paths, err := filepath.Glob("../../examples/specs/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example specs found: %v", err)
	}
	for _, p := range paths {
		t.Run(filepath.Base(p), func(t *testing.T) {
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			s, err := Parse(data)
			if err != nil {
				t.Fatalf("Parse: %v", err)
			}
			cfg := workloads.DefaultConfig()
			cfg.Scale = 0.05
			w, err := s.Build(cfg)
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			total := 0
			for _, rs := range drain(w) {
				total += len(rs)
				for _, r := range rs {
					if !r.Barrier && int(r.Page) >= w.SharedPages {
						t.Fatalf("page %d outside segment", r.Page)
					}
				}
			}
			if total == 0 {
				t.Fatal("example spec generates no references")
			}
		})
	}
}

// specForFrom builds a one-step sweep spec with the given from selector.
func specForFrom(from string, hot int) string {
	st := fmt.Sprintf(`{"op": "sweep", "region": "a", "from": %q, "density": 4}`, from)
	if from == "" {
		st = `{"op": "sweep", "region": "a", "density": 4}`
	}
	if hot > 0 {
		st = st[:len(st)-1] + fmt.Sprintf(`, "hot": %d}`, hot)
	}
	return fmt.Sprintf(`{
	  "name": "fromtest",
	  "regions": [{"name": "a", "pages": 4, "placement": "node"}],
	  "phases": [{"steps": [%s]}]
	}`, st)
}

// TestNeighborWraparound pins the ring semantics of from "neighbor:<d>"
// when d reaches or exceeds the node count: distances wrap modulo the
// ring, and a distance that is a multiple of the node count degenerates
// to the CPU's own node.
func TestNeighborWraparound(t *testing.T) {
	cfg := testCfg() // 4 nodes
	build := func(from string) [][]trace.Ref {
		t.Helper()
		s, err := Parse([]byte(specForFrom(from, 0)))
		if err != nil {
			t.Fatalf("from %q: %v", from, err)
		}
		w, err := s.Build(cfg)
		if err != nil {
			t.Fatalf("from %q: %v", from, err)
		}
		return drain(w)
	}
	same := func(a, b [][]trace.Ref) bool {
		for c := range a {
			if len(a[c]) != len(b[c]) {
				return false
			}
			for i := range a[c] {
				if a[c][i] != b[c][i] {
					return false
				}
			}
		}
		return true
	}
	if !same(build("neighbor:5"), build("neighbor:1")) {
		t.Error("neighbor:5 on 4 nodes should equal neighbor:1 (ring wrap)")
	}
	if !same(build("neighbor:4"), build("own")) {
		t.Error("neighbor:4 on 4 nodes should equal own (full loop)")
	}
	if !same(build("neighbor:8"), build("own")) {
		t.Error("neighbor:8 on 4 nodes should equal own (two full loops)")
	}
	if same(build("neighbor:1"), build("own")) {
		t.Error("neighbor:1 should differ from own (sanity)")
	}
}

// TestHotExceedsSelection pins the hot-set sizing contract: a hot set
// larger than the step's selectable pages is an error, never a silent
// "all pages" degrade — statically in Validate when the selection size is
// machine-independent, otherwise at Build.
func TestHotExceedsSelection(t *testing.T) {
	cfg := testCfg() // 4 nodes

	// Static: own-node sweep over a 4-page region selects 4 pages.
	s, err := Parse([]byte(specForFrom("own", 5)))
	if err == nil {
		err = fmt.Errorf("Parse accepted it")
	}
	if !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("hot 5 on a 4-page own selection: got %v, want a hot-exceeds error from Validate", err)
	}
	// hot == selection size is the boundary and must pass.
	s, err = Parse([]byte(specForFrom("own", 4)))
	if err != nil {
		t.Fatalf("hot 4 on a 4-page selection must validate: %v", err)
	}
	if _, err := s.Build(cfg); err != nil {
		t.Errorf("hot 4 on a 4-page selection must build: %v", err)
	}

	// Machine-dependent: from "all" on a node region selects pages×nodes,
	// so Validate cannot size it — Build must reject the oversized hot set.
	s, err = Parse([]byte(specForFrom("all", 17)))
	if err != nil {
		t.Fatalf("hot 17 over from=all is machine-dependent and must pass Validate: %v", err)
	}
	if _, err := s.Build(cfg); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("hot 17 over 16 selected pages: Build returned %v, want a hot-exceeds error", err)
	}
	s, err = Parse([]byte(specForFrom("all", 16)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Build(cfg); err != nil {
		t.Errorf("hot 16 over 16 selected pages must build: %v", err)
	}
}

// segmentSpec is a spec whose one region asks for the given pages.
func segmentSpec(placement string, pages int) []byte {
	return []byte(fmt.Sprintf(`{"name": "big",
  "regions": [{"name": "r", "pages": %d, "placement": %q}],
  "phases": [{"steps": [{"op": "compute", "refs": 4, "gap": 10}]}]}`, pages, placement))
}

// TestSegmentBound checks that Build bounds the shared segment the
// regions ask for before allocating it: the machine sizes dense per-page
// and per-block state from the segment, so a spec one page past
// addr.MaxSegmentBlocks must fail, naming the bound, instead of reaching
// the builder.
func TestSegmentBound(t *testing.T) {
	cfg := testCfg()
	bound := addr.MaxSegmentBlocks / cfg.Geometry.BlocksPerPage()
	for _, tc := range []struct {
		name, placement string
		pages           int
		ok              bool
	}{
		{"global at the bound", "global", bound, true},
		{"global one page past", "global", bound + 1, false},
		{"per-node pages times nodes one page past", "node", bound/cfg.Nodes + 1, false},
		// pages x nodes wraps around to 0 in int arithmetic.
		{"overflowing per-node pages", "node", 1 << 62, false},
	} {
		s, err := Parse(segmentSpec(tc.placement, tc.pages))
		if err != nil {
			t.Fatalf("%s: Parse: %v", tc.name, err)
		}
		_, err = s.Build(cfg)
		if tc.ok {
			if err != nil {
				t.Errorf("%s: Build: %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%d-block segment bound", addr.MaxSegmentBlocks)) {
			t.Errorf("%s: Build error %v, want one naming the %d-block bound", tc.name, err, addr.MaxSegmentBlocks)
		}
	}
}
