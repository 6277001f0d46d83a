package report

import (
	"rnuma/internal/harness"
	"rnuma/internal/stats"
)

// This file is the report package's machine-readable surface: the same
// results the text renderers print, as JSON document types. The serve
// daemon returns these from /jobs/{id}/report?format=json; the text
// renderers remain the human format. stats.Run marshals wholesale
// (PageKey is text-marshalable), so the docs embed runs directly.

// RunDoc is one run's counters plus context (the JSON form of
// RunSummary).
type RunDoc struct {
	Name   string     `json:"name"`
	System string     `json:"system"`
	Run    *stats.Run `json:"run"`
	// Normalized is execution time relative to the ideal baseline; zero
	// when no baseline was computed.
	Normalized float64 `json:"normalized,omitempty"`
}

// NewRunDoc builds a RunDoc; baseline may be nil.
func NewRunDoc(name, system string, r, baseline *stats.Run) RunDoc {
	d := RunDoc{Name: name, System: system, Run: r}
	if baseline != nil {
		d.Normalized = r.Normalized(baseline)
	}
	return d
}

// GridCellDoc is one grid cell's or sweep point's result (the JSON form
// of a harness.GridCell: a heat-map cell's exact numbers).
type GridCellDoc struct {
	Nodes       int     `json:"nodes,omitempty"`
	CPUsPerNode int     `json:"cpusPerNode,omitempty"`
	CCNUMA      float64 `json:"ccnuma"`
	SCOMA       float64 `json:"scoma"`
	RNUMA       float64 `json:"rnuma"`
	// RNUMAOverBest is R-NUMA's time over the better base protocol at
	// this cell (the paper's bounded-worst-case ratio).
	RNUMAOverBest float64 `json:"rnumaOverBest"`
}

// newCellDoc converts a harness.GridCell.
func newCellDoc(c harness.GridCell) GridCellDoc {
	return GridCellDoc{Nodes: c.Nodes, CPUsPerNode: c.CPUsPerNode,
		CCNUMA: c.CCNUMA, SCOMA: c.SCOMA, RNUMA: c.RNUMA, RNUMAOverBest: c.RNUMAOverBest()}
}

// PointDoc is one sweep point's result (the JSON form of a Sensitivity
// table row).
type PointDoc struct {
	Label string `json:"label"`
	Value string `json:"value"`
	GridCellDoc
}

// SensitivityDoc is a one-axis sweep's results (the JSON form of
// Sensitivity).
type SensitivityDoc struct {
	Workload string     `json:"workload"`
	Axis     string     `json:"axis"`
	Points   []PointDoc `json:"points"`
	// WorstRNUMAOverBest is the headline bound: the worst R-NUMA-vs-best
	// ratio across the axis.
	WorstRNUMAOverBest float64 `json:"worstRnumaOverBest"`
}

// NewSensitivityDoc builds a SensitivityDoc from sweep points.
func NewSensitivityDoc(workload string, axis harness.Axis, points []harness.AxisPoint) SensitivityDoc {
	d := SensitivityDoc{Workload: workload, Axis: axis.String(), Points: make([]PointDoc, 0, len(points))}
	for _, p := range points {
		c := newCellDoc(p.GridCell)
		d.Points = append(d.Points, PointDoc{Label: p.Label, Value: p.Value.String(), GridCellDoc: c})
		d.WorstRNUMAOverBest = max(d.WorstRNUMAOverBest, c.RNUMAOverBest)
	}
	return d
}

// KneeDoc is one grid line's knee conclusion (the JSON form of a
// harness.Knee): where the line first exceeds the bound, and its worst
// point.
type KneeDoc struct {
	// Line names the grid line: "row <ylabel>" or "col <xlabel>".
	Line  string  `json:"line"`
	Bound float64 `json:"bound"`
	// Index is the first point exceeding Bound, -1 when the line stays
	// within it; Label/Value/Ratio describe that point when Index >= 0.
	Index int     `json:"index"`
	Label string  `json:"label,omitempty"`
	Value string  `json:"value,omitempty"`
	Ratio float64 `json:"ratio,omitempty"`
	// MaxLabel/MaxRatio are the line's worst point (saturation plateau).
	MaxLabel string  `json:"maxLabel"`
	MaxRatio float64 `json:"maxRatio"`
	// Summary is the rendered one-line conclusion.
	Summary string `json:"summary"`
}

// newKneeDoc converts a harness.Knee for one named line.
func newKneeDoc(line string, k harness.Knee) KneeDoc {
	d := KneeDoc{
		Line:     line,
		Bound:    k.Bound,
		Index:    k.Index,
		MaxLabel: k.MaxLabel,
		MaxRatio: k.MaxRatio,
		Summary:  k.String(),
	}
	if k.Index >= 0 {
		d.Label, d.Value, d.Ratio = k.Label, k.Value.String(), k.Ratio
	}
	return d
}

// GridDoc is a two-axis grid sweep's results (the JSON form of Grid):
// Cells[i][j] is the cell at (XValues[j], YValues[i]).
type GridDoc struct {
	Workload string          `json:"workload"`
	AxisX    string          `json:"axisX"`
	AxisY    string          `json:"axisY"`
	XValues  []string        `json:"xValues"`
	XLabels  []string        `json:"xLabels"`
	YValues  []string        `json:"yValues"`
	YLabels  []string        `json:"yLabels"`
	Cells    [][]GridCellDoc `json:"cells"`
	// Bound is the knee bound the Knees entries were computed against.
	Bound float64   `json:"bound"`
	Knees []KneeDoc `json:"knees"`
	// WorstRNUMAOverBest is the headline bound: the worst R-NUMA-vs-best
	// ratio across every cell.
	WorstRNUMAOverBest float64 `json:"worstRnumaOverBest"`
}

// NewGridDoc builds a GridDoc from a grid sweep; bound <= 0 selects the
// harness default knee bound.
func NewGridDoc(g *harness.Grid, bound float64) GridDoc {
	if bound <= 0 {
		bound = harness.DefaultKneeBound
	}
	d := GridDoc{
		Workload: g.Workload,
		AxisX:    g.AxisX.String(),
		AxisY:    g.AxisY.String(),
		XLabels:  g.XLabels,
		YLabels:  g.YLabels,
		Bound:    bound,
		Cells:    make([][]GridCellDoc, len(g.Cells)),
	}
	for _, v := range g.XValues {
		d.XValues = append(d.XValues, v.String())
	}
	for _, v := range g.YValues {
		d.YValues = append(d.YValues, v.String())
	}
	for i := range g.Cells {
		d.Cells[i] = make([]GridCellDoc, len(g.Cells[i]))
		for j, c := range g.Cells[i] {
			d.Cells[i][j] = newCellDoc(c)
			d.WorstRNUMAOverBest = max(d.WorstRNUMAOverBest, d.Cells[i][j].RNUMAOverBest)
		}
	}
	for i := range g.Cells {
		d.Knees = append(d.Knees, newKneeDoc("row "+g.YLabels[i], harness.FindKnee(g.Row(i), bound)))
	}
	for j := range g.XLabels {
		d.Knees = append(d.Knees, newKneeDoc("col "+g.XLabels[j], harness.FindKnee(g.Col(j), bound)))
	}
	return d
}

// DeltaDoc is a two-run comparison (the JSON form of DeltaTable).
type DeltaDoc struct {
	A         string `json:"a"`
	B         string `json:"b"`
	Identical bool   `json:"identical"`
	Differing int    `json:"differing"`
	// Counters lists only counters whose values differ, each named by
	// its Go field name ("Refs", "ExecCycles"). The full table is
	// reconstructable from the two RunDocs, but they key the 15
	// telemetry.Counters fields by their JSON tags ("refs"), so a
	// lookup must map those names.
	Counters              []stats.CounterDelta `json:"counters,omitempty"`
	RefetchDigestA        string               `json:"refetchDigestA"`
	RefetchDigestB        string               `json:"refetchDigestB"`
	RefetchPagesDiffering int                  `json:"refetchPagesDiffering,omitempty"`
}

// NewDeltaDoc builds a DeltaDoc from a stats.Diff result.
func NewDeltaDoc(nameA, nameB string, d *stats.RunDelta) DeltaDoc {
	doc := DeltaDoc{
		A:                     nameA,
		B:                     nameB,
		Identical:             d.Identical(),
		Differing:             d.Differing,
		RefetchDigestA:        d.RefetchDigestA,
		RefetchDigestB:        d.RefetchDigestB,
		RefetchPagesDiffering: d.RefetchPagesDiffering,
	}
	for _, c := range d.Counters {
		if c.Delta != 0 {
			doc.Counters = append(doc.Counters, c)
		}
	}
	return doc
}

// FigureDoc is one paper figure or table's rows. Rows is the harness's
// own row type for the figure (Fig5Curve, Fig6Row, ... — all plainly
// marshalable), so the JSON mirrors what the text renderer consumed.
type FigureDoc struct {
	Figure string `json:"figure"`
	Rows   any    `json:"rows"`
}
