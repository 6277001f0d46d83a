package harness

import "fmt"

// This file crosses two sweep axes into a grid: one recorded trace
// transformed along a pair of parameter axes and replayed under all
// three designs at every (x, y) cell. The paper's robustness claim is
// really a claim about parameter *pairs* — R-NUMA tracks the better
// base protocol as machine shape and workload knobs move together — and
// a grid answers where that tracking stops (FindKnee, knee.go) instead
// of eyeballing two separate curves.
//
// A grid is one sweep line (sweep.go) per value of its outer axis.
// Composition is canonical: the X transform applies first, then the Y
// transform, so a cell's trace variant registers under the composed
// name "name@<x>@<y>" and a grid column at fixed x is *by construction*
// the one-axis Y sweep of the X variant — same transforms, same content
// keys, same memo slots. A threshold line shares its outer variant, as
// a threshold Sweep shares its capture, and forks its cells from one
// trunk (fork.go), so it costs about one replay instead of one per cell.

// Grid is a two-axis sensitivity sweep's results. Values along each
// axis come back reduced, sorted, and deduplicated, exactly as Sweep
// returns its points; Cells[i][j] is the cell at (XValues[j],
// YValues[i]) — row index first, so a row shares a Y value and a
// column shares an X value.
type Grid struct {
	// Workload is the capture's embedded name.
	Workload string
	// AxisX applies first in the transform composition, AxisY second.
	AxisX, AxisY Axis
	// XValues/YValues are the swept values; XLabels/YLabels the
	// corresponding point labels ("b=32B", "T=64", ...).
	XValues, YValues []SweepValue
	XLabels, YLabels []string
	// Cells[i][j] is the cell at (XValues[j], YValues[i]).
	Cells [][]GridCell
}

// Row returns row i (YValues[i] held fixed) as one-axis sweep points
// along the X axis — the same shape Sweep returns, so FindKnee and the
// Sensitivity renderer apply to grid lines unchanged.
func (g *Grid) Row(i int) []AxisPoint {
	out := make([]AxisPoint, len(g.XValues))
	for j, c := range g.Cells[i] {
		out[j] = AxisPoint{Axis: g.AxisX, Value: g.XValues[j], Label: g.XLabels[j], GridCell: c}
	}
	return out
}

// Col returns column j (XValues[j] held fixed) as one-axis sweep points
// along the Y axis.
func (g *Grid) Col(j int) []AxisPoint {
	out := make([]AxisPoint, len(g.YValues))
	for i := range g.Cells {
		out[i] = AxisPoint{Axis: g.AxisY, Value: g.YValues[i], Label: g.YLabels[i], GridCell: g.Cells[i][j]}
	}
	return out
}

// SweepGrid transforms the in-memory trace encoding along two distinct
// axes and replays every (x, y) cell under CC-NUMA, S-COMA, and R-NUMA
// plus the same-configuration ideal baseline. The X transform applies
// before the Y transform, so each cell's variant registers under the
// composed "<name>@<x>@<y>" source and overlapping grids and one-axis
// sweeps share simulations through the memo store. Keys come from the
// trace memo exactly as in Sweep.
func (h *Harness) SweepGrid(data []byte, axisX Axis, valuesX []SweepValue, axisY Axis, valuesY []SweepValue) (*Grid, error) {
	if axisX == axisY {
		return nil, fmt.Errorf("harness: grid axes must differ (both %s)", axisX)
	}
	if len(valuesX) == 0 || len(valuesY) == 0 {
		return nil, fmt.Errorf("harness: %s x %s grid over no values", axisX, axisY)
	}
	in, err := openCapture(data, &h.decodes)
	if err != nil {
		return nil, err
	}
	g := &Grid{Workload: in.hdr.Name, AxisX: axisX, AxisY: axisY,
		XValues: normalizeSweepValues(valuesX), YValues: normalizeSweepValues(valuesY)}

	// The engine walks a transform axis on the outside (each outer value
	// derives one variant trace) and runs the inner axis as a line over
	// it. A threshold X axis has no transform of its own, so the axes
	// swap internally and the cells transpose back on assembly.
	swap := axisX == AxisThreshold
	outerAxis, outerVals, innerAxis, innerVals := axisX, g.XValues, axisY, g.YValues
	if swap {
		outerAxis, outerVals, innerAxis, innerVals = axisY, g.YValues, axisX, g.XValues
	}
	var pts []sweepPoint
	outerLabels := make([]string, len(outerVals))
	var innerLabels []string
	for oi, ov := range outerVals {
		label, m, err := pointOf(in.hdr, outerAxis, ov)
		if err != nil {
			return nil, err
		}
		// A cell of two transforms reads the capture through both maps,
		// so its outer variant is keyed only when a threshold line
		// replays it.
		ps, labels, err := h.line(in.then(outerAxis, ov, m), innerAxis, innerVals, label+", ")
		if err != nil {
			return nil, err
		}
		pts = append(pts, ps...)
		outerLabels[oi], innerLabels = label, labels
	}
	cells, err := h.cells(pts) // pts[oi*len(innerVals)+ii]
	if err != nil {
		return nil, err
	}

	g.XLabels, g.YLabels = outerLabels, innerLabels
	if swap {
		g.XLabels, g.YLabels = innerLabels, outerLabels
	}
	g.Cells = make([][]GridCell, len(g.YValues))
	for i := range g.Cells {
		g.Cells[i] = make([]GridCell, len(g.XValues))
		for j := range g.Cells[i] {
			if swap { // outer = Y, inner = X
				g.Cells[i][j] = cells[i*len(g.XValues)+j]
			} else { // outer = X, inner = Y
				g.Cells[i][j] = cells[j*len(g.YValues)+i]
			}
		}
	}
	return g, nil
}
