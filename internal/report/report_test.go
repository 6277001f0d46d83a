package report

import (
	"strings"
	"testing"

	"rnuma/internal/harness"
	"rnuma/internal/model"
	"rnuma/internal/stats"
)

func TestFigure5Rendering(t *testing.T) {
	var b strings.Builder
	curves := []harness.Fig5Curve{
		{App: "barnes", Points: []stats.CDFPoint{{PctPages: 0, PctRefetches: 0}, {PctPages: 10, PctRefetches: 85}, {PctPages: 100, PctRefetches: 100}}, At10: 85, At30: 95},
		{App: "fft"}, // no refetches
	}
	Figure5(&b, curves)
	out := b.String()
	for _, want := range []string{"FIGURE 5", "barnes", "85.0%", "fft", "(none)"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure 5 output missing %q", want)
		}
	}
}

func TestTable4Rendering(t *testing.T) {
	var b strings.Builder
	Table4(&b, []harness.Table4Row{{App: "lu", RWPagePct: 82, RefetchPct: 21, ReplacementPct: 70}})
	out := b.String()
	for _, want := range []string{"TABLE 4", "lu", "82%", "21%", "70%"} {
		if !strings.Contains(out, want) {
			t.Errorf("table 4 output missing %q", want)
		}
	}
}

func TestFigure6Rendering(t *testing.T) {
	var b strings.Builder
	Figure6(&b, []harness.Fig6Row{
		{App: "radix", CCNUMA: 1.31, SCOMA: 5.42, RNUMA: 2.05, BestOfBase: 1.31, RNUMAOverBest: 1.57},
		{App: "barnes", CCNUMA: 1.8, SCOMA: 1.6, RNUMA: 1.1, BestOfBase: 1.6, RNUMAOverBest: 0.69},
	})
	out := b.String()
	for _, want := range []string{"FIGURE 6", "radix", "5.42", "R-NUMA", "57% slower", "31% faster"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure 6 output missing %q (output:\n%s)", want, out)
		}
	}
	// The biggest value should have the longest bar.
	lines := strings.Split(out, "\n")
	maxHashes, maxLine := 0, ""
	for _, l := range lines {
		if n := strings.Count(l, "#"); n > maxHashes {
			maxHashes, maxLine = n, l
		}
	}
	if !strings.Contains(maxLine, "5.42") {
		t.Errorf("longest bar is not the 5.42 entry: %q", maxLine)
	}
}

func TestFigure7Rendering(t *testing.T) {
	var b strings.Builder
	Figure7(&b, []harness.Fig7Row{{App: "ocean", CC1K: 7.19, CC32K: 2.6, R128p320K: 2.0, R32Kp320K: 2.0, R128p40M: 1.4}})
	out := b.String()
	for _, want := range []string{"FIGURE 7", "ocean", "7.19", "b=1K", "p=40M"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure 7 output missing %q", want)
		}
	}
}

func TestFigure8Rendering(t *testing.T) {
	var b strings.Builder
	Figure8(&b, []harness.Fig8Row{{App: "lu", ByT: map[int]float64{16: 0.75, 64: 1, 256: 1.3, 1024: 1.8}}})
	out := b.String()
	for _, want := range []string{"FIGURE 8", "lu", "T=16", "0.75", "1.80"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure 8 output missing %q", want)
		}
	}
}

func TestFigure9Rendering(t *testing.T) {
	var b strings.Builder
	Figure9(&b, []harness.Fig9Row{{App: "em3d", SCOMA: 1.5, SCOMASoft: 2.5, RNUMA: 1.06, RNUMASoft: 1.11}})
	out := b.String()
	for _, want := range []string{"FIGURE 9", "em3d", "S-COMA-SOFT", "67%", "5%"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure 9 output missing %q (output:\n%s)", want, out)
		}
	}
}

func TestModelRendering(t *testing.T) {
	var b strings.Builder
	Model(&b, model.Params{Crefetch: 376, Callocate: 5000, Crelocate: 5000, T: 64})
	out := b.String()
	for _, want := range []string{"EQ1", "EQ2", "EQ3", "3.000", "13.3"} {
		if !strings.Contains(out, want) {
			t.Errorf("model output missing %q", want)
		}
	}
}

func TestRunSummaryRendering(t *testing.T) {
	var b strings.Builder
	r := stats.NewRun()
	r.ExecCycles = 12345
	r.Refs = 100
	r.Relocations = 7
	RunSummary(&b, "test", r)
	out := b.String()
	for _, want := range []string{"12345", "relocations:      7", "references:            100"} {
		if !strings.Contains(out, want) {
			t.Errorf("run summary missing %q (output:\n%s)", want, out)
		}
	}
}

func TestBarClamping(t *testing.T) {
	if bar(10, 5, 20) != strings.Repeat("#", 20) {
		t.Error("bar should clamp to width")
	}
	if bar(-1, 5, 20) != "" {
		t.Error("negative value should render empty")
	}
	if bar(1, 0, 20) != "" {
		t.Error("zero max should render empty")
	}
}

func TestSensitivityRendering(t *testing.T) {
	var b strings.Builder
	Sensitivity(&b, "fft", harness.AxisDilate, []harness.AxisPoint{
		{Axis: harness.AxisDilate, Label: "x1/2", GridCell: harness.GridCell{Nodes: 8, CPUsPerNode: 4, CCNUMA: 1.2, SCOMA: 1.5, RNUMA: 1.25}},
		{Axis: harness.AxisDilate, Label: "x2", GridCell: harness.GridCell{Nodes: 8, CPUsPerNode: 4, CCNUMA: 1.1, SCOMA: 1.3, RNUMA: 1.15}},
	})
	out := b.String()
	for _, want := range []string{"SENSITIVITY — fft swept over dilate", "x1/2", "x2", "faster processors", "worst R-NUMA-vs-best ratio"} {
		if !strings.Contains(out, want) {
			t.Errorf("sensitivity output missing %q (output:\n%s)", want, out)
		}
	}
}

func TestDeltaTableRendering(t *testing.T) {
	a, b := stats.NewRun(), stats.NewRun()
	a.ExecCycles, b.ExecCycles = 1000, 1100
	a.Refs, b.Refs = 50, 50
	d := stats.Diff(a, b)

	var buf strings.Builder
	DeltaTable(&buf, "old", "new", d, false)
	out := buf.String()
	for _, want := range []string{"DELTA — old vs new", "ExecCycles", "+10.0%", "runs differ: 1 counters changed"} {
		if !strings.Contains(out, want) {
			t.Errorf("delta table missing %q (output:\n%s)", want, out)
		}
	}
	if strings.Contains(out, "Refs ") {
		t.Errorf("unchanged counter rendered without verbose:\n%s", out)
	}

	// Verbose lists unchanged counters; identical runs say so.
	buf.Reset()
	DeltaTable(&buf, "a", "b", stats.Diff(a, a), true)
	out = buf.String()
	for _, want := range []string{"Refs", "(all counters identical)", "runs are identical"} {
		if !strings.Contains(out, want) {
			t.Errorf("verbose identical table missing %q (output:\n%s)", want, out)
		}
	}
}
