package harness

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"rnuma/internal/addr"
	"rnuma/internal/config"
	"rnuma/internal/tracefile"
	"rnuma/internal/workloads"
)

// recordCatalog encodes a catalog application's streams at the base
// shape and the given scale.
func recordCatalog(t *testing.T, name string, scale float64) []byte {
	t.Helper()
	app, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("unknown app %q", name)
	}
	cfg := workloads.DefaultConfig()
	cfg.Scale = scale
	var buf bytes.Buffer
	if _, _, err := tracefile.WriteWorkload(&buf, app.Build(cfg), cfg); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// wrapped transforms a trace by the tracefile io wrapper that a sweep
// point's transform names, decoding, mapping and encoding it: the
// reference a sweep variant read through its map must agree with.
func wrapped(t *testing.T, data []byte, hdr tracefile.Header, axis Axis, v SweepValue) []byte {
	t.Helper()
	var buf bytes.Buffer
	src := bytes.NewReader(data)
	var err error
	switch n := int(v.Num); axis {
	case AxisNodes:
		_, err = tracefile.Retarget(&buf, src, tracefile.RetargetSpec{
			Nodes: n, Policy: tracefile.RoundRobin(), Name: fmt.Sprintf("%s@%dn", hdr.Name, n)})
	case AxisDilate:
		_, err = tracefile.Dilate(&buf, src, tracefile.DilateSpec{
			Num: v.Num, Den: v.Den, Name: fmt.Sprintf("%s@x%s", hdr.Name, v)})
	case AxisBlockSize:
		_, err = tracefile.RetargetGeometry(&buf, src, tracefile.GeometrySpec{
			BlockBytes: n, Name: fmt.Sprintf("%s@block%d", hdr.Name, n)})
	case AxisPageSize:
		_, err = tracefile.RetargetGeometry(&buf, src, tracefile.GeometrySpec{
			PageBytes: n, Name: fmt.Sprintf("%s@page%d", hdr.Name, n)})
	default:
		t.Fatalf("the %s axis has no transform", axis)
	}
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// retargetSource loads a retargeted copy of an in-memory trace into h.
func retargetSource(t *testing.T, h *Harness, data []byte, spec tracefile.RetargetSpec) Source {
	t.Helper()
	var buf bytes.Buffer
	if _, err := tracefile.Retarget(&buf, bytes.NewReader(data), spec); err != nil {
		t.Fatalf("retarget: %v", err)
	}
	return load(t, h, KindTrace, buf.Bytes())
}

// TestRetargetIdentityReplaysIdentically is the transform layer's
// differential acceptance proof: retargeting a catalog trace back onto
// its own machine shape with the identity policy must replay to a
// stats.Run identical to replaying the original capture — the transform
// re-encodes, it never perturbs.
func TestRetargetIdentityReplaysIdentically(t *testing.T) {
	apps := []string{"em3d", "lu"}
	if testing.Short() {
		apps = apps[:1]
	}
	const scale = 0.05
	sys := config.Base(config.RNUMA)
	for _, name := range apps {
		data := recordCatalog(t, name, scale)

		// Each replay runs in a harness of its own, so neither reads the
		// other's stored result.
		hOrig, hRe := New(scale), New(scale)
		orig := load(t, hOrig, KindTrace, data)
		re := retargetSource(t, hRe, data, tracefile.RetargetSpec{}) // identity, shape kept
		if orig.Key() != re.Key() {
			t.Errorf("%s: identity retarget changed the memo key: %s vs %s", name, orig.Key(), re.Key())
		}

		runs := make([]interface{}, 0, 2)
		for _, h := range []*Harness{hOrig, hRe} {
			run, err := h.Run(name, sys)
			if err != nil {
				t.Fatalf("%s: run: %v", name, err)
			}
			runs = append(runs, run)
		}
		if !reflect.DeepEqual(runs[0], runs[1]) {
			t.Errorf("%s: identity-retargeted replay differs from the original replay", name)
		}
	}
}

// TestNodeSweep drives a recorded catalog trace across node counts
// through the generalized axis engine and checks the points come back
// shaped and normalized sanely, with the store deduplicating a repeated
// sweep.
func TestNodeSweep(t *testing.T) {
	// The full three-point sweep is 12 simulations; the short suite
	// keeps two points (the sweep mechanics — retarget, register,
	// normalize, sort — are identical per point).
	// fft is the catalog's smallest capture, so the full 12-simulation
	// grid stays cheap even under -race.
	const scale = 0.02
	counts := []int{16, 4, 8}
	shapes := []struct{ nodes, cpusPer int }{{4, 8}, {8, 4}, {16, 2}}
	if testing.Short() {
		counts, shapes = []int{16, 8}, shapes[1:]
	}
	nodeValues := func(counts []int) []SweepValue {
		out := make([]SweepValue, 0, len(counts))
		for _, n := range counts {
			out = append(out, IntValue(n))
		}
		return out
	}
	data := recordCatalog(t, "fft", scale)
	h := New(scale)
	points, name, err := h.Sweep(data, AxisNodes, nodeValues(counts))
	if err != nil {
		t.Fatal(err)
	}
	if name != "fft" {
		t.Errorf("workload name = %q", name)
	}
	if len(points) != len(shapes) {
		t.Fatalf("got %d points, want %d", len(points), len(shapes))
	}
	for i, want := range shapes {
		p := points[i]
		if p.Nodes != want.nodes || p.CPUsPerNode != want.cpusPer {
			t.Errorf("point %d: %dn x %dcpu, want %dn x %d", i, p.Nodes, p.CPUsPerNode, want.nodes, want.cpusPer)
		}
		// Normalized times are relative to the same-shape ideal machine:
		// every real protocol is at least as slow.
		for which, v := range map[string]float64{"ccnuma": p.CCNUMA, "scoma": p.SCOMA, "rnuma": p.RNUMA} {
			if v < 1 {
				t.Errorf("point %d: %s normalized time %.3f < 1", i, which, v)
			}
		}
		if p.RNUMAOverBest() <= 0 {
			t.Errorf("point %d: bad R/best ratio", i)
		}
	}

	// A second sweep over a subset must reuse the registered sources and
	// cached runs (Register would error if the content key changed).
	again, _, err := h.Sweep(data, AxisNodes, nodeValues([]int{8}))
	if err != nil {
		t.Fatal(err)
	}
	var at8 AxisPoint
	for _, p := range points {
		if p.Nodes == 8 {
			at8 = p
		}
	}
	if !reflect.DeepEqual(again[0], at8) {
		t.Errorf("repeated sweep point differs: %+v vs %+v", again[0], at8)
	}

	// Node counts that do not divide the CPU count are rejected.
	if _, _, err := h.Sweep(data, AxisNodes, nodeValues([]int{5})); err == nil {
		t.Error("5-node sweep of a 32-CPU trace accepted")
	}
	if _, _, err := h.Sweep(data, AxisNodes, nil); err == nil {
		t.Error("empty sweep accepted")
	}
}

// TestSweepDilate sweeps gap-dilation factors: each point replays the
// dilated capture normalized to the same-dilation ideal machine, so
// every protocol stays at or above 1 and points come back sorted by
// factor with rational labels.
func TestSweepDilate(t *testing.T) {
	const scale = 0.02
	data := recordCatalog(t, "fft", scale)
	h := New(scale)
	values, err := ParseSweepValues(AxisDilate, "2,1/2")
	if err != nil {
		t.Fatal(err)
	}
	points, name, err := h.Sweep(data, AxisDilate, values)
	if err != nil {
		t.Fatal(err)
	}
	if name != "fft" {
		t.Errorf("workload name = %q", name)
	}
	if len(points) != 2 || points[0].Label != "x1/2" || points[1].Label != "x2" {
		t.Fatalf("points = %+v", points)
	}
	for i, p := range points {
		if p.Nodes != 8 || p.CPUsPerNode != 4 {
			t.Errorf("point %d: shape %dn x %d, want 8x4", i, p.Nodes, p.CPUsPerNode)
		}
		for which, v := range map[string]float64{"ccnuma": p.CCNUMA, "scoma": p.SCOMA, "rnuma": p.RNUMA} {
			if v < 1 {
				t.Errorf("point %d: %s normalized time %.3f < 1", i, which, v)
			}
		}
	}

	// Equivalent fractions collapse to one point.
	dup, _, err := h.Sweep(data, AxisDilate, []SweepValue{{Num: 1, Den: 2}, {Num: 2, Den: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(dup) != 1 {
		t.Fatalf("1/2 and 2/4 did not collapse: %d points", len(dup))
	}
	if !reflect.DeepEqual(dup[0], points[0]) {
		t.Errorf("repeated dilate point differs: %+v vs %+v", dup[0], points[0])
	}

	if _, _, err := h.Sweep(data, AxisDilate, []SweepValue{{Num: -1, Den: 2}}); err == nil {
		t.Error("negative dilate factor accepted")
	}
}

// TestSweepThreshold sweeps R-NUMA's relocation threshold: the capture
// replays unchanged, so the CC-NUMA and S-COMA columns are constant
// across points and only R-NUMA responds.
func TestSweepThreshold(t *testing.T) {
	const scale = 0.02
	data := recordCatalog(t, "fft", scale)
	h := New(scale)
	values, err := ParseSweepValues(AxisThreshold, "16,256")
	if err != nil {
		t.Fatal(err)
	}
	points, _, err := h.Sweep(data, AxisThreshold, values)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 || points[0].Label != "T=16" || points[1].Label != "T=256" {
		t.Fatalf("points = %+v", points)
	}
	if points[0].CCNUMA != points[1].CCNUMA || points[0].SCOMA != points[1].SCOMA {
		t.Errorf("base protocols moved across thresholds: %+v", points)
	}
	if _, _, err := h.Sweep(data, AxisThreshold, []SweepValue{IntValue(0)}); err == nil {
		t.Error("threshold 0 accepted")
	}
}

// TestThresholdLineLabels: the ideal, CC-NUMA and S-COMA runs of a
// threshold line serve every point, so their progress lines name no
// threshold, and a grid line's name only its outer value; R-NUMA's run
// names its point.
func TestThresholdLineLabels(t *testing.T) {
	const scale = 0.02
	data := recordCatalog(t, "em3d", scale)
	var log bytes.Buffer
	h := New(scale)
	h.Log = &log
	thresholds := []SweepValue{IntValue(16), IntValue(64)}
	if _, _, err := h.Sweep(data, AxisThreshold, thresholds); err != nil {
		t.Fatal(err)
	}
	if _, err := h.SweepGrid(data, AxisBlockSize, []SweepValue{IntValue(16)}, AxisThreshold, thresholds); err != nil {
		t.Fatal(err)
	}
	// One point more: its shared runs are store hits, and its R-NUMA run,
	// with nothing to fork from, simulates under its own name.
	if _, _, err := h.Sweep(data, AxisThreshold, []SweepValue{IntValue(256)}); err != nil {
		t.Fatal(err)
	}
	var shared, rnuma int
	for _, line := range strings.Split(log.String(), "\n") {
		rest, ok := strings.CutPrefix(line, "running ")
		if !ok {
			continue
		}
		_, sys, _ := strings.Cut(rest, " on ")
		sys = strings.TrimSpace(sys)
		switch {
		case strings.HasPrefix(sys, "R-NUMA"):
			rnuma++
			if sys != "R-NUMA T=256" {
				t.Errorf("R-NUMA run logged as %q, want \"R-NUMA T=256\"", sys)
			}
		case strings.Contains(sys, "T="):
			t.Errorf("a run every point shares names a threshold: %q", line)
		case strings.Contains(rest, "@block16") && !strings.HasSuffix(sys, " b=16B"):
			t.Errorf("a grid line's shared run lacks its outer label: %q", line)
		default:
			shared++
		}
	}
	if shared != 6 || rnuma != 1 {
		t.Errorf("logged %d shared and %d R-NUMA runs, want 6 and 1:\n%s", shared, rnuma, log.String())
	}
}

// TestSweepGeometry sweeps the block size through geometry retargeting:
// each point replays on a machine of the retargeted geometry.
func TestSweepGeometry(t *testing.T) {
	const scale = 0.02
	data := recordCatalog(t, "fft", scale)
	h := New(scale)
	points, _, err := h.Sweep(data, AxisBlockSize, []SweepValue{IntValue(64), IntValue(16)})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 || points[0].Label != "b=16B" || points[1].Label != "b=64B" {
		t.Fatalf("points = %+v", points)
	}
	for i, p := range points {
		if p.RNUMA < 1 || p.CCNUMA < 1 {
			t.Errorf("point %d: normalized below ideal: %+v", i, p)
		}
	}
	// A non-power-of-two size surfaces the transform's validation.
	if _, _, err := h.Sweep(data, AxisBlockSize, []SweepValue{IntValue(48)}); err == nil {
		t.Error("non-power-of-two block size accepted")
	}
}

// TestParseAxisAndValues covers the CLI-facing parsers.
func TestParseAxisAndValues(t *testing.T) {
	for name, want := range map[string]Axis{
		"nodes": AxisNodes, "dilate": AxisDilate, "block": AxisBlockSize,
		"page": AxisPageSize, "threshold": AxisThreshold,
	} {
		got, err := ParseAxis(name)
		if err != nil || got != want {
			t.Errorf("ParseAxis(%q) = %v, %v", name, got, err)
		}
		if got.String() != name {
			t.Errorf("axis %v renders as %q", want, got.String())
		}
	}
	if _, err := ParseAxis("bogus"); err == nil {
		t.Error("unknown axis accepted")
	}

	vals, err := ParseSweepValues(AxisDilate, "1/2, 2,4")
	if err != nil || len(vals) != 3 || vals[0] != (SweepValue{1, 2}) {
		t.Errorf("dilate values = %v, %v", vals, err)
	}
	if _, err := ParseSweepValues(AxisNodes, "1/2"); err == nil {
		t.Error("rational node count accepted")
	}
	if _, err := ParseSweepValues(AxisNodes, "x"); err == nil {
		t.Error("non-integer accepted")
	}
	if v := (SweepValue{Num: 3, Den: 1}); v.String() != "3" || v.Float() != 3 {
		t.Errorf("SweepValue render: %q %v", v.String(), v.Float())
	}
	if v := (SweepValue{Num: 1, Den: 2}); v.String() != "1/2" || v.Float() != 0.5 {
		t.Errorf("SweepValue render: %q %v", v.String(), v.Float())
	}
}

// TestRetargetedTraceSource: a trace retargeted in memory replays on
// the new shape and refuses the recorded one.
func TestRetargetedTraceSource(t *testing.T) {
	h := New(0.02)
	src := retargetSource(t, h, recordCatalog(t, "fft", 0.02), tracefile.RetargetSpec{
		Nodes:  4,
		Policy: tracefile.RoundRobin(),
		Name:   "fft@4n",
	})
	if src.Name() != "fft@4n" {
		t.Errorf("name = %q", src.Name())
	}
	sys := config.Base(config.RNUMA)
	sys.Nodes, sys.CPUsPerNode = 4, 8
	run, err := h.Run(src.Name(), sys)
	if err != nil {
		t.Fatal(err)
	}
	if run.ExecCycles <= 0 {
		t.Error("empty run")
	}
	// The retargeted source carries the new shape, so the base 8-node
	// machine must be rejected at load time.
	if _, err := h.Run(src.Name(), config.Base(config.RNUMA)); err == nil {
		t.Error("8-node replay of a 4-node retarget accepted")
	}
}

// TestCheckPointsUndividedShape: on a capture whose 3 nodes do not
// divide its 32 CPUs, every sweep point and grid cell that replays the
// capture on its recorded nodes fails, naming the shape, and nodes
// points that retarget it to a dividing shape pass, alone or as either
// axis of a grid.
func TestCheckPointsUndividedShape(t *testing.T) {
	hdr := tracefile.Header{Name: "odd", Geometry: addr.Default, CPUs: 32, Nodes: 3, SharedPages: 6,
		Homes: []addr.NodeID{0, 1, 2, 0, 1, 2}}
	one := func(n int) []SweepValue { return []SweepValue{IntValue(n)} }
	for _, tc := range []struct {
		name      string
		axis      Axis
		values    []SweepValue
		axisB     Axis
		valuesB   []SweepValue
		undivided bool
	}{
		{"threshold", AxisThreshold, one(16), 0, nil, true},
		{"dilate", AxisDilate, one(2), 0, nil, true},
		{"block", AxisBlockSize, one(64), 0, nil, true},
		{"page", AxisPageSize, one(8192), 0, nil, true},
		{"dilate x threshold", AxisDilate, one(2), AxisThreshold, one(16), true},
		{"threshold x block", AxisThreshold, one(16), AxisBlockSize, one(64), true},
		{"nodes", AxisNodes, []SweepValue{IntValue(4), IntValue(8)}, 0, nil, false},
		{"dilate x nodes", AxisDilate, one(2), AxisNodes, one(4), false},
		{"nodes x threshold", AxisNodes, one(4), AxisThreshold, one(16), false},
	} {
		err := CheckPoints(hdr, tc.axis, tc.values, tc.axisB, tc.valuesB)
		if got := err != nil && strings.Contains(err.Error(), "32 CPUs on 3 nodes"); got != tc.undivided || (!tc.undivided && err != nil) {
			t.Errorf("%s: %v, want undivided %v", tc.name, err, tc.undivided)
		}
	}
}
