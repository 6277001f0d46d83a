package harness

import (
	"fmt"
	"slices"
	"sort"

	"rnuma/internal/config"
)

// This file generalizes the one-axis sweep engine (sweep.go) to
// two-axis grids: one recorded trace transformed along a pair of
// parameter axes and replayed under all three designs at every (x, y)
// cell. The paper's robustness claim is really a claim about parameter
// *pairs* — R-NUMA tracks the better base protocol as machine shape and
// workload knobs move together — and a grid answers where that tracking
// stops (FindKnee, knee.go) instead of eyeballing two separate curves.
//
// Composition is canonical: the X transform applies first, then the Y
// transform, so a cell's trace variant registers under the composed
// name "name@<x>@<y>" and a grid column at fixed x is *by construction*
// the one-axis Y sweep of the X variant — same transforms, same content
// keys, same memo slots. The threshold axis stays a config-only axis
// exactly as in Sweep: cells along it share one registered variant
// source, differ only in sys.Threshold, and are pre-computed by the
// trunk-and-fork engine (fork.go), so a whole threshold line costs
// about one replay instead of one per cell.

// GridCell is one (x, y) configuration's result: the three base
// protocols' execution times normalized to the ideal machine of the
// same shape, geometry, and trace variant.
type GridCell struct {
	// Nodes and CPUsPerNode are the simulated machine shape at this cell.
	Nodes       int
	CPUsPerNode int
	// Normalized execution times.
	CCNUMA, SCOMA, RNUMA float64
}

// RNUMAOverBest reports R-NUMA's time relative to the better base
// protocol at this cell (the paper's bounded-worst-case ratio).
func (c GridCell) RNUMAOverBest() float64 {
	best := c.CCNUMA
	if c.SCOMA < best {
		best = c.SCOMA
	}
	if best == 0 {
		return 0
	}
	return c.RNUMA / best
}

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
		out[j] = c.point(g.AxisX, g.XValues[j], g.XLabels[j])
	}
	return out
}

// Col returns column j (XValues[j] held fixed) as one-axis sweep points
// along the Y axis.
func (g *Grid) Col(j int) []AxisPoint {
	out := make([]AxisPoint, len(g.YValues))
	for i := range g.Cells {
		out[i] = g.Cells[i][j].point(g.AxisY, g.YValues[i], g.YLabels[i])
	}
	return out
}

// point is the cell as the sweep point at value v along axis.
func (c GridCell) point(axis Axis, v SweepValue, label string) AxisPoint {
	return AxisPoint{Axis: axis, Value: v, Label: label, Nodes: c.Nodes, CPUsPerNode: c.CPUsPerNode,
		CCNUMA: c.CCNUMA, SCOMA: c.SCOMA, RNUMA: c.RNUMA}
}

// SweepGrid transforms the in-memory trace encoding along two distinct
// axes and replays every (x, y) cell under CC-NUMA, S-COMA, and R-NUMA
// plus the same-configuration ideal baseline. The X transform applies
// before the Y transform, so each cell's variant registers under the
// composed "<name>@<x>@<y>" source and overlapping grids and one-axis
// sweeps share simulations through the memo store. When one axis is
// the threshold, its cells share the other axis's variant source and
// every threshold line is pre-computed by the trunk-and-fork engine.
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
	hdr := in.hdr

	xs := normalizeSweepValues(valuesX)
	ys := normalizeSweepValues(valuesY)

	// The engine walks the transform axis on the outside (each outer
	// value derives one variant trace) and the inner axis along it. A
	// threshold X axis has no transform of its own, so the axes swap
	// internally and the cells transpose back on assembly.
	swap := axisX == AxisThreshold
	outerAxis, outerVals, innerAxis, innerVals := axisX, xs, axisY, ys
	if swap {
		outerAxis, outerVals, innerAxis, innerVals = axisY, ys, axisX, xs
	}
	pts, outerLabels, innerLabels, err := h.gridPoints(in, outerAxis, outerVals, innerAxis, innerVals)
	if err != nil {
		return nil, err
	}

	plan := NewPlan()
	for _, line := range pts {
		for _, p := range line {
			plan.AddRuns([]string{p.app}, p.ideal, p.cc, p.scoma, p.rn)
		}
	}
	h.Prefetch(plan)

	g := &Grid{
		Workload: hdr.Name,
		AxisX:    axisX, AxisY: axisY,
		XValues: xs, YValues: ys,
		XLabels: outerLabels, YLabels: innerLabels,
		Cells: make([][]GridCell, len(ys)),
	}
	if swap {
		g.XLabels, g.YLabels = innerLabels, outerLabels
	}
	for i := range g.Cells {
		g.Cells[i] = make([]GridCell, len(xs))
		for j := range g.Cells[i] {
			var p sweepPoint
			if swap {
				p = pts[i][j] // outer = Y, inner = X
			} else {
				p = pts[j][i] // outer = X, inner = Y
			}
			cell, err := h.gridCell(p)
			if err != nil {
				return nil, err
			}
			g.Cells[i][j] = cell
		}
	}
	return g, nil
}

// gridPoints resolves every cell of a grid with the transform axis
// outer: pts[oi][ii] is the cell at (outer value oi, inner value ii).
// outerAxis is never the threshold (SweepGrid swaps first); innerAxis
// may be a second transform or the config-only threshold axis. Keys come
// from the trace memo exactly as in Sweep. An outer variant needs a key
// only on a threshold line, which replays it; a cell of two transforms
// reads the capture through both maps, so its outer variant is never
// keyed or read.
func (h *Harness) gridPoints(in *variant, outerAxis Axis, outerVals []SweepValue, innerAxis Axis, innerVals []SweepValue) (pts [][]sweepPoint, outerLabels, innerLabels []string, err error) {
	pts = make([][]sweepPoint, len(outerVals))
	outerLabels = make([]string, len(outerVals))
	innerLabels = make([]string, len(innerVals))
	for oi, ov := range outerVals {
		labelO, mO, err := pointOf(in.hdr, outerAxis, ov)
		if err != nil {
			return nil, nil, nil, err
		}
		outerLabels[oi] = labelO
		outer := in.then(outerAxis, ov, mO)
		// The threshold axis replays the outer variant unchanged: the
		// line's cells share its one source, registered under its own
		// transformed name (always "@"-suffixed, so it cannot shadow a
		// catalog app).
		if innerAxis == AxisThreshold {
			if err := h.registerVariant(outer); err != nil {
				return nil, nil, nil, err
			}
		}

		pts[oi] = make([]sweepPoint, len(innerVals))
		for ii, iv := range innerVals {
			labelI, mI, err := pointOf(outer.hdr, innerAxis, iv)
			if err != nil {
				return nil, nil, nil, err
			}
			innerLabels[ii] = labelI
			cell := outer
			if mI != nil {
				cell = outer.then(innerAxis, iv, mI)
				if err := h.registerVariant(cell); err != nil {
					return nil, nil, nil, err
				}
			}
			if pts[oi][ii], err = newSweepPoint(cell.name, cell.hdr, innerAxis, iv, labelO+", "+labelI); err != nil {
				return nil, nil, nil, err
			}
		}
		// A threshold line shares its whole replay prefix: one trunk at
		// the largest threshold, each cell forked from its watermark.
		if innerAxis == AxisThreshold && len(innerVals) > 1 {
			if err := h.forkThresholdPoints(outer, pts[oi]); err != nil {
				return nil, nil, nil, err
			}
		}
	}
	return pts, outerLabels, innerLabels, nil
}

// gridCell assembles one resolved point's normalized cell from the
// store (Prefetch has already run the plan, so these are cache reads);
// Sweep reads its points the same way.
func (h *Harness) gridCell(p sweepPoint) (GridCell, error) {
	base, err := h.Run(p.app, p.ideal)
	if err != nil {
		return GridCell{}, err
	}
	cell := GridCell{Nodes: p.ideal.Nodes, CPUsPerNode: p.ideal.CPUsPerNode}
	for _, c := range []struct {
		sys  config.System
		into *float64
	}{
		{p.cc, &cell.CCNUMA},
		{p.scoma, &cell.SCOMA},
		{p.rn, &cell.RNUMA},
	} {
		run, err := h.Run(p.app, c.sys)
		if err != nil {
			return GridCell{}, err
		}
		*c.into = run.Normalized(base)
	}
	return cell, nil
}

// normalizeSweepValues reduces, sorts, and deduplicates axis values
// (2/4 and 1/2 are one point), shared by Sweep and SweepGrid.
func normalizeSweepValues(values []SweepValue) []SweepValue {
	vals := make([]SweepValue, 0, len(values))
	for _, v := range values {
		vals = append(vals, v.reduced())
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i].Float() < vals[j].Float() })
	return slices.Compact(vals)
}
