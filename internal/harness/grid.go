package harness

import (
	"fmt"
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
		out[j] = AxisPoint{
			Axis: g.AxisX, Value: g.XValues[j], Label: g.XLabels[j],
			Nodes: c.Nodes, CPUsPerNode: c.CPUsPerNode,
			CCNUMA: c.CCNUMA, SCOMA: c.SCOMA, RNUMA: c.RNUMA,
		}
	}
	return out
}

// Col returns column j (XValues[j] held fixed) as one-axis sweep points
// along the Y axis.
func (g *Grid) Col(j int) []AxisPoint {
	out := make([]AxisPoint, len(g.YValues))
	for i := range g.Cells {
		c := g.Cells[i][j]
		out[i] = AxisPoint{
			Axis: g.AxisY, Value: g.YValues[i], Label: g.YLabels[i],
			Nodes: c.Nodes, CPUsPerNode: c.CPUsPerNode,
			CCNUMA: c.CCNUMA, SCOMA: c.SCOMA, RNUMA: c.RNUMA,
		}
	}
	return out
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
	in, err := capture(data, noDecode) // cells replay transforms of it, never it
	if err != nil {
		return nil, err
	}
	hdr := in.info.hdr

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
// from the trace memo exactly as in Sweep: an outer variant is derived
// only to learn a key the memo lacks or to feed a simulation, a cell
// variant, or the line's fork trunk.
func (h *Harness) gridPoints(in *variant, outerAxis Axis, outerVals []SweepValue, innerAxis Axis, innerVals []SweepValue) (pts [][]sweepPoint, outerLabels, innerLabels []string, err error) {
	pts = make([][]sweepPoint, len(outerVals))
	outerLabels = make([]string, len(outerVals))
	innerLabels = make([]string, len(innerVals))
	for oi, ov := range outerVals {
		labelO, err := pointLabel(in.info.hdr, outerAxis, ov)
		if err != nil {
			return nil, nil, nil, err
		}
		outerLabels[oi] = labelO
		outer, err := in.step(outerAxis, ov, &h.decodes)
		if err != nil {
			return nil, nil, nil, err
		}
		// The threshold axis replays the outer variant unchanged: the
		// line's cells share its one source, registered under its own
		// transformed name (always "@"-suffixed, so it cannot shadow a
		// catalog app).
		if innerAxis == AxisThreshold {
			if err := h.Register(outer.source()); err != nil {
				return nil, nil, nil, err
			}
		}

		pts[oi] = make([]sweepPoint, len(innerVals))
		for ii, iv := range innerVals {
			labelI, err := pointLabel(outer.info.hdr, innerAxis, iv)
			if err != nil {
				return nil, nil, nil, err
			}
			innerLabels[ii] = labelI
			cell := outer
			if innerAxis != AxisThreshold {
				if cell, err = outer.step(innerAxis, iv, &h.decodes); err != nil {
					return nil, nil, nil, err
				}
				if err := h.Register(cell.source()); err != nil {
					return nil, nil, nil, err
				}
			}
			pts[oi][ii] = newSweepPoint(cell.info.hdr.Name, cell.info.hdr, innerAxis, iv, labelO+", "+labelI)
		}
		// A threshold line shares its whole replay prefix: one trunk at
		// the largest threshold, each cell forked from its watermark.
		if innerAxis == AxisThreshold && len(innerVals) > 1 {
			if err := h.forkThresholdPoints(outer.enc, pts[oi]); err != nil {
				return nil, nil, nil, err
			}
		}
	}
	return pts, outerLabels, innerLabels, nil
}

// gridCell assembles one resolved point's normalized cell from the
// store (Prefetch has already run the plan, so these are cache reads).
func (h *Harness) gridCell(p sweepPoint) (GridCell, error) {
	base, err := h.Run(p.app, p.ideal)
	if err != nil {
		return GridCell{}, err
	}
	cell := GridCell{Nodes: p.nodes, CPUsPerNode: p.cpusPer}
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
	out := vals[:0]
	for i, v := range vals {
		if i == 0 || vals[i-1] != v {
			out = append(out, v)
		}
	}
	return out
}
