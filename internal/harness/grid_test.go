package harness

import (
	"bytes"
	"reflect"
	"testing"

	"rnuma/internal/config"
	"rnuma/internal/stats"
	"rnuma/internal/tracefile"
)

// TestSweepGridMatchesOneAxisSweeps is the grid engine's differential
// acceptance proof: every column of a block x threshold grid must
// DeepEqual the one-axis threshold Sweep of that column's block
// variant, and the row at the default threshold must DeepEqual the
// one-axis block Sweep of the original capture — same transforms, same
// content keys, bit-identical results. em3d's threshold lines move, so
// a cell holding another threshold's run cannot pass.
func TestSweepGridMatchesOneAxisSweeps(t *testing.T) {
	const scale = 0.02
	data := recordCatalog(t, "em3d", scale)
	d, err := tracefile.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	hdr := d.Header()

	blocks := []SweepValue{IntValue(16), IntValue(32)}
	// 64 is the default threshold, so the T=64 row must match a plain
	// block sweep (which leaves the threshold at its default).
	thresholds := []SweepValue{IntValue(16), IntValue(64)}

	h := New(scale)
	g, err := h.SweepGrid(data, AxisBlockSize, blocks, AxisThreshold, thresholds)
	if err != nil {
		t.Fatal(err)
	}
	if g.Workload != hdr.Name || g.AxisX != AxisBlockSize || g.AxisY != AxisThreshold {
		t.Fatalf("grid identity = %q %s x %s", g.Workload, g.AxisX, g.AxisY)
	}
	if len(g.Cells) != 2 || len(g.Cells[0]) != 2 {
		t.Fatalf("grid is %dx%d, want 2x2", len(g.Cells[0]), len(g.Cells))
	}
	for j := range blocks {
		if g.Cells[0][j] == g.Cells[1][j] {
			t.Errorf("column %d's threshold line is flat: %+v", j, g.Cells[0][j])
		}
	}

	// Columns: threshold swept at a fixed block size.
	for j, b := range blocks {
		enc := wrapped(t, data, hdr, AxisBlockSize, b)
		fresh := New(scale)
		want, _, err := fresh.Sweep(enc, AxisThreshold, thresholds)
		if err != nil {
			t.Fatal(err)
		}
		if got := g.Col(j); !reflect.DeepEqual(got, want) {
			t.Errorf("column b=%s differs from the one-axis threshold sweep:\n got %+v\nwant %+v", b, got, want)
		}
	}

	// Row at T=64: block swept at the default threshold.
	fresh := New(scale)
	want, _, err := fresh.Sweep(data, AxisBlockSize, blocks)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Row(1); !reflect.DeepEqual(got, want) {
		t.Errorf("row T=64 differs from the one-axis block sweep:\n got %+v\nwant %+v", got, want)
	}

	// A warm repeat of the same grid must be pure cache reads.
	before := h.Simulations()
	if _, err := h.SweepGrid(data, AxisBlockSize, blocks, AxisThreshold, thresholds); err != nil {
		t.Fatal(err)
	}
	if after := h.Simulations(); after != before {
		t.Errorf("warm grid repeat ran %d new simulations", after-before)
	}

	// Swapping the axes transposes the same cells.
	swapped, err := h.SweepGrid(data, AxisThreshold, thresholds, AxisBlockSize, blocks)
	if err != nil {
		t.Fatal(err)
	}
	if h.Simulations() != before {
		t.Errorf("transposed grid ran %d new simulations", h.Simulations()-before)
	}
	for i := range g.Cells {
		for j := range g.Cells[i] {
			if swapped.Cells[j][i] != g.Cells[i][j] {
				t.Errorf("cell (%d,%d) does not transpose: %+v vs %+v", i, j, g.Cells[i][j], swapped.Cells[j][i])
			}
		}
	}

	// A non-square grid with the threshold on the X axis exercises the
	// internal axis swap where len(xs) != len(ys).
	threshold3 := []SweepValue{IntValue(16), IntValue(64), IntValue(256)}
	wide, err := h.SweepGrid(data, AxisThreshold, threshold3, AxisBlockSize, blocks)
	if err != nil {
		t.Fatal(err)
	}
	if len(wide.Cells) != len(blocks) || len(wide.Cells[0]) != len(threshold3) {
		t.Fatalf("non-square grid is %dx%d cells, want %dx%d",
			len(wide.Cells[0]), len(wide.Cells), len(threshold3), len(blocks))
	}
	tall, err := h.SweepGrid(data, AxisBlockSize, blocks, AxisThreshold, threshold3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wide.XLabels, tall.YLabels) || !reflect.DeepEqual(wide.YLabels, tall.XLabels) {
		t.Errorf("non-square labels do not transpose: %v/%v vs %v/%v",
			wide.XLabels, wide.YLabels, tall.XLabels, tall.YLabels)
	}
	for i := range tall.Cells {
		for j := range tall.Cells[i] {
			if wide.Cells[j][i] != tall.Cells[i][j] {
				t.Errorf("non-square cell (%d,%d) does not transpose: %+v vs %+v",
					i, j, tall.Cells[i][j], wide.Cells[j][i])
			}
		}
	}
}

// TestSweepGridForkMatchesDirectReplay checks the trunk-and-fork path a
// grid's threshold lines ride: each forked cell's R-NUMA run must be
// bit-identical (stats.Diff empty) to an independent full replay of the
// block variant at that threshold.
func TestSweepGridForkMatchesDirectReplay(t *testing.T) {
	const scale = 0.02
	data := recordCatalog(t, "em3d", scale)
	d, err := tracefile.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	hdr := d.Header()

	h := New(scale)
	thresholds := []SweepValue{IntValue(16), IntValue(256)}
	if _, err := h.SweepGrid(data, AxisBlockSize, []SweepValue{IntValue(32)}, AxisThreshold, thresholds); err != nil {
		t.Fatal(err)
	}

	enc := wrapped(t, data, hdr, AxisBlockSize, IntValue(32))
	vd, err := tracefile.NewReader(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	vh := vd.Header()
	var cycles []int64
	for _, T := range []int{16, 256} {
		sys := config.Base(config.RNUMA)
		sys.Nodes = vh.Nodes
		sys.CPUsPerNode = vh.CPUs / vh.Nodes
		sys.Geometry = vh.Geometry
		sys.Threshold = T
		// The grid registered the variant under its embedded name; the
		// system name is not part of the memo key, so this reads the
		// forked result straight from the store.
		got, err := h.Run(vh.Name, sys)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := Replay(bytes.NewReader(enc), sys)
		if err != nil {
			t.Fatal(err)
		}
		if delta := stats.Diff(got, direct.Run); !delta.Identical() {
			t.Errorf("T=%d: forked grid cell differs from a direct replay in %d counters", T, delta.Differing)
		}
		cycles = append(cycles, direct.Run.ExecCycles)
	}
	// T=16 relocates pages and T=256 does not: the two runs must differ,
	// or a fork handed the other threshold's run would pass.
	if cycles[0] == cycles[1] {
		t.Errorf("T=16 and T=256 replay to the same %d cycles", cycles[0])
	}
}

// TestSweepGridCommutingRow pins the canonical composition order on a
// two-transform grid: a dilate x block grid applies dilate (X) first,
// and because gap dilation and geometry re-splitting commute on
// content, each row must still DeepEqual the one-axis dilate sweep of
// that row's block variant.
func TestSweepGridCommutingRow(t *testing.T) {
	const scale = 0.02
	data := recordCatalog(t, "fft", scale)
	d, err := tracefile.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	hdr := d.Header()

	factors, err := ParseSweepValues(AxisDilate, "1/2,2")
	if err != nil {
		t.Fatal(err)
	}
	blocks := []SweepValue{IntValue(32), IntValue(64)}
	h := New(scale)
	g, err := h.SweepGrid(data, AxisDilate, factors, AxisBlockSize, blocks)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range blocks {
		enc := wrapped(t, data, hdr, AxisBlockSize, b)
		fresh := New(scale)
		want, _, err := fresh.Sweep(enc, AxisDilate, factors)
		if err != nil {
			t.Fatal(err)
		}
		if got := g.Row(i); !reflect.DeepEqual(got, want) {
			t.Errorf("row b=%s differs from the one-axis dilate sweep of the block variant:\n got %+v\nwant %+v", b, got, want)
		}
	}
}

// TestSweepGridRejections covers the grid engine's argument errors.
func TestSweepGridRejections(t *testing.T) {
	const scale = 0.02
	data := recordCatalog(t, "fft", scale)
	h := New(scale)
	one := []SweepValue{IntValue(32)}
	if _, err := h.SweepGrid(data, AxisBlockSize, one, AxisBlockSize, one); err == nil {
		t.Error("equal axes accepted")
	}
	if _, err := h.SweepGrid(data, AxisBlockSize, nil, AxisThreshold, one); err == nil {
		t.Error("empty X values accepted")
	}
	if _, err := h.SweepGrid(data, AxisBlockSize, one, AxisThreshold, nil); err == nil {
		t.Error("empty Y values accepted")
	}
	if _, err := h.SweepGrid(data, AxisBlockSize, one, AxisThreshold, []SweepValue{IntValue(0)}); err == nil {
		t.Error("threshold 0 accepted")
	}
}

// kneePoints builds a synthetic sweep line with the given R-NUMA/best
// ratios (CC-NUMA pinned at 1 so RNUMA is the ratio).
func kneePoints(ratios ...float64) []AxisPoint {
	pts := make([]AxisPoint, len(ratios))
	for i, r := range ratios {
		pts[i] = AxisPoint{
			Axis:  AxisThreshold,
			Value: IntValue(1 << i),
			Label: string(rune('a' + i)),
			// SCOMA above CC-NUMA so CC-NUMA (1.0) is "best".
			GridCell: GridCell{CCNUMA: 1, SCOMA: 2, RNUMA: r},
		}
	}
	return pts
}

// TestFindKnee covers the knee detector's edge cases: no knee, knee at
// the first point, a non-monotone line (first crossing reported even
// when later points recover), and the empty line.
func TestFindKnee(t *testing.T) {
	// All within the bound: no knee, max reported.
	k := FindKnee(kneePoints(1.0, 1.05, 1.08), 1.10)
	if k.Index != -1 || k.MaxIndex != 2 || k.MaxRatio != 1.08 {
		t.Errorf("no-knee line: %+v", k)
	}
	if got := k.String(); got != "within 1.10x everywhere (max 1.08x at c)" {
		t.Errorf("no-knee summary = %q", got)
	}

	// Knee at the first point.
	k = FindKnee(kneePoints(1.5, 1.2, 1.3), 1.10)
	if k.Index != 0 || k.Ratio != 1.5 || k.MaxIndex != 0 {
		t.Errorf("first-point knee: %+v", k)
	}

	// Non-monotone: the knee is the first crossing, the plateau the max,
	// even though the line dips back under the bound in between.
	k = FindKnee(kneePoints(1.0, 1.2, 1.05, 1.4), 1.10)
	if k.Index != 1 || k.Ratio != 1.2 {
		t.Errorf("non-monotone knee at %d (%v), want 1", k.Index, k.Ratio)
	}
	if k.MaxIndex != 3 || k.MaxRatio != 1.4 {
		t.Errorf("non-monotone max at %d (%v), want 3", k.MaxIndex, k.MaxRatio)
	}
	if got := k.String(); got != "exceeds 1.10x at b (1.20x), worst 1.40x at d" {
		t.Errorf("knee summary = %q", got)
	}

	// bound <= 0 selects the default.
	if k = FindKnee(kneePoints(1.2), 0); k.Bound != DefaultKneeBound || k.Index != 0 {
		t.Errorf("default bound: %+v", k)
	}

	// Empty line.
	if k = FindKnee(nil, 1.10); k.Index != -1 || k.MaxIndex != -1 || k.String() != "no points" {
		t.Errorf("empty line: %+v", k)
	}
}
