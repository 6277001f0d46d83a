package report

import (
	"strings"
	"testing"

	"rnuma/internal/harness"
)

// testGrid builds a 2x2 block x threshold grid whose bottom-right cell
// breaks the default bound (ratio 1.50).
func testGrid() *harness.Grid {
	return &harness.Grid{
		Workload: "fft",
		AxisX:    harness.AxisBlockSize,
		AxisY:    harness.AxisThreshold,
		XValues:  []harness.SweepValue{harness.IntValue(32), harness.IntValue(64)},
		XLabels:  []string{"b=32B", "b=64B"},
		YValues:  []harness.SweepValue{harness.IntValue(16), harness.IntValue(64)},
		YLabels:  []string{"T=16", "T=64"},
		Cells: [][]harness.GridCell{
			{
				{Nodes: 8, CPUsPerNode: 4, CCNUMA: 1.2, SCOMA: 1.5, RNUMA: 1.2},
				{Nodes: 8, CPUsPerNode: 4, CCNUMA: 1.2, SCOMA: 1.5, RNUMA: 1.25},
			},
			{
				{Nodes: 8, CPUsPerNode: 4, CCNUMA: 1.2, SCOMA: 1.5, RNUMA: 1.26},
				{Nodes: 8, CPUsPerNode: 4, CCNUMA: 1.0, SCOMA: 1.5, RNUMA: 1.5},
			},
		},
	}
}

func TestGridRendering(t *testing.T) {
	var b strings.Builder
	Grid(&b, testGrid(), 0)
	out := b.String()
	for _, want := range []string{
		"GRID — fft: block (x) x threshold (y), 2x2 cells",
		"heat map (R-NUMA/best):",
		"columns (x): b=32B, b=64B",
		"R-NUMA/best per cell:",
		"knees (R-NUMA/best bound 1.10):",
		"row T=16 (block axis): within 1.10x everywhere (max 1.04x at b=64B)",
		"col b=64B (threshold axis): exceeds 1.10x at T=64 (1.50x), worst 1.50x at T=64",
		"worst cell: 1.50x at (b=64B, T=64)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("grid output missing %q (output:\n%s)", want, out)
		}
	}
	// The heat-map rows carry the ramp glyphs: 1.00 -> '.', 1.50 -> '*'.
	if !strings.Contains(out, "T=16  . :") || !strings.Contains(out, "T=64  : *") {
		t.Errorf("heat-map glyph rows wrong:\n%s", out)
	}
}

func TestNewGridDoc(t *testing.T) {
	doc := NewGridDoc(testGrid(), 0)
	if doc.Workload != "fft" || doc.AxisX != "block" || doc.AxisY != "threshold" {
		t.Fatalf("doc identity = %+v", doc)
	}
	if doc.Bound != harness.DefaultKneeBound {
		t.Errorf("bound = %v, want default", doc.Bound)
	}
	if len(doc.Cells) != 2 || len(doc.Cells[0]) != 2 {
		t.Fatalf("cells = %+v", doc.Cells)
	}
	if doc.Cells[1][1].RNUMAOverBest != 1.5 || doc.WorstRNUMAOverBest != 1.5 {
		t.Errorf("worst ratio = %v / %v, want 1.5", doc.Cells[1][1].RNUMAOverBest, doc.WorstRNUMAOverBest)
	}
	// Two rows + two columns of knees; the breaking column carries the
	// crossing point, a clean row does not.
	if len(doc.Knees) != 4 {
		t.Fatalf("knees = %+v", doc.Knees)
	}
	byLine := map[string]KneeDoc{}
	for _, k := range doc.Knees {
		byLine[k.Line] = k
	}
	if k := byLine["row T=16"]; k.Index != -1 || k.Label != "" || k.MaxLabel != "b=64B" {
		t.Errorf("row T=16 knee = %+v", k)
	}
	if k := byLine["col b=64B"]; k.Index != 1 || k.Label != "T=64" || k.Value != "64" || k.Ratio != 1.5 {
		t.Errorf("col b=64B knee = %+v", k)
	}
}

// TestSensitivityLongLabels pins the data-sized label column: variant
// labels longer than the old fixed 16-character pad must not shear the
// numeric columns out of alignment.
func TestSensitivityLongLabels(t *testing.T) {
	long := "b=128B, T=1024 (composed)" // 25 chars, overflows a fixed %-16s
	var b strings.Builder
	Sensitivity(&b, "em3d", harness.AxisBlockSize, []harness.AxisPoint{
		{Axis: harness.AxisBlockSize, Label: "b=16B", GridCell: harness.GridCell{CCNUMA: 1.2, SCOMA: 1.5, RNUMA: 1.25}},
		{Axis: harness.AxisBlockSize, Label: long, GridCell: harness.GridCell{CCNUMA: 1.1, SCOMA: 1.3, RNUMA: 1.15}},
	})
	var table []string
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.Contains(line, "CC-NUMA") || strings.HasPrefix(line, "---") || strings.Contains(line, "b=1") {
			table = append(table, line)
		}
	}
	if len(table) != 4 {
		t.Fatalf("table lines = %q", table)
	}
	for _, line := range table[1:] {
		if len(line) != len(table[0]) {
			t.Errorf("misaligned table line (%d vs %d chars):\n%q\n%q", len(line), len(table[0]), table[0], line)
		}
	}
	if !strings.Contains(b.String(), long+" ") {
		t.Errorf("long label truncated:\n%s", b.String())
	}
}
