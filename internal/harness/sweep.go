package harness

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"rnuma/internal/config"
	"rnuma/internal/tracefile"
)

// This file implements the sensitivity engine: one recorded trace
// transformed along a parameter axis and replayed under all three
// designs at every point. The paper's core claim is robustness — R-NUMA
// stays within a small constant of the better base protocol across
// machine and workload parameters — so every axis re-checks that claim
// against a different knob: machine size (shape retarget), processor
// speed (gap dilation), coherence granularity (geometry retarget), page
// size (geometry retarget), and the relocation threshold (a config
// change, no transform needed). The engine resolves one line of points
// at a time (line) and runs any list of resolved points (cells): a
// one-axis Sweep is one line over the capture, and a grid (grid.go) is
// one line per value of its other axis.

// Axis identifies the parameter a sensitivity sweep varies.
type Axis int

const (
	// AxisNodes sweeps the node count: the capture is re-homed
	// round-robin onto each machine size (the original node-count sweep).
	AxisNodes Axis = iota
	// AxisDilate sweeps a compute-gap scale factor: factors below 1 model
	// faster processors (less compute between references), factors above
	// 1 slower ones.
	AxisDilate
	// AxisBlockSize sweeps the coherence block size via geometry
	// retargeting (values in bytes).
	AxisBlockSize
	// AxisPageSize sweeps the page size via geometry retargeting (values
	// in bytes).
	AxisPageSize
	// AxisThreshold sweeps R-NUMA's relocation threshold T; the trace is
	// replayed unchanged and only the R-NUMA configuration varies.
	AxisThreshold
)

// String names the axis the way the CLI spells it.
func (a Axis) String() string {
	switch a {
	case AxisNodes:
		return "nodes"
	case AxisDilate:
		return "dilate"
	case AxisBlockSize:
		return "block"
	case AxisPageSize:
		return "page"
	case AxisThreshold:
		return "threshold"
	}
	return fmt.Sprintf("Axis(%d)", int(a))
}

// ParseAxis resolves a CLI axis name.
func ParseAxis(name string) (Axis, error) {
	switch name {
	case "nodes":
		return AxisNodes, nil
	case "dilate":
		return AxisDilate, nil
	case "block":
		return AxisBlockSize, nil
	case "page":
		return AxisPageSize, nil
	case "threshold", "T":
		return AxisThreshold, nil
	default:
		return 0, fmt.Errorf("harness: unknown sweep axis %q (want nodes, dilate, block, page, or threshold)", name)
	}
}

// SweepValue is one point's parameter value. Every axis uses integers
// (Den == 1) except dilate, whose factors are rationals.
type SweepValue struct {
	Num, Den int64
}

// IntValue wraps an integer axis value.
func IntValue(n int) SweepValue { return SweepValue{Num: int64(n), Den: 1} }

// Float returns the value as a float for sorting and plotting.
func (v SweepValue) Float() float64 {
	if v.Den == 0 {
		return 0
	}
	return float64(v.Num) / float64(v.Den)
}

// String renders the value as the CLI accepts it ("4", "1/2").
func (v SweepValue) String() string {
	if v.Den == 1 {
		return strconv.FormatInt(v.Num, 10)
	}
	return fmt.Sprintf("%d/%d", v.Num, v.Den)
}

// reduced normalizes the fraction (2/4 and 1/2 are the same point).
func (v SweepValue) reduced() SweepValue {
	a, b := v.Num, v.Den
	for b != 0 {
		a, b = b, a%b
	}
	if a == 0 {
		return v
	}
	if a < 0 {
		a = -a
	}
	return SweepValue{Num: v.Num / a, Den: v.Den / a}
}

// ParseSweepValues parses a comma-separated value list for an axis:
// plain integers everywhere, N/D rationals on the dilate axis.
func ParseSweepValues(axis Axis, csv string) ([]SweepValue, error) {
	var out []SweepValue
	for _, s := range strings.Split(csv, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		if axis == AxisDilate {
			num, den, err := tracefile.ParseRatio(s)
			if err != nil {
				return nil, err
			}
			// ParseRatio only checks the syntax; reject non-positive
			// factors here so the bad token is named at parse time rather
			// than failing deep inside the dilate transform.
			if num <= 0 || den <= 0 {
				return nil, fmt.Errorf("harness: bad %s sweep value %q (factor must be positive)", axis, s)
			}
			out = append(out, SweepValue{Num: num, Den: den})
			continue
		}
		n, err := strconv.Atoi(s)
		if err != nil {
			return nil, fmt.Errorf("harness: bad %s sweep value %q (want an integer)", axis, s)
		}
		out = append(out, IntValue(n))
	}
	return out, nil
}

// GridCell is one configuration's result: the three base protocols'
// execution times normalized to the ideal machine (infinite block cache)
// of the same shape, geometry, and trace variant.
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

// AxisPoint is one point of a sensitivity sweep: the cell at Value
// along Axis.
type AxisPoint struct {
	Axis  Axis
	Value SweepValue
	// Label names the point the way the report prints it ("8n x 4cpu",
	// "x1/2", "b=64B", "T=256").
	Label string
	GridCell
}

// humanBytes renders a byte size compactly for point labels.
func humanBytes(n int) string {
	if n >= 1<<20 && n%(1<<20) == 0 {
		return fmt.Sprintf("%dM", n>>20)
	}
	if n >= 1<<10 && n%(1<<10) == 0 {
		return fmt.Sprintf("%dK", n>>10)
	}
	return fmt.Sprintf("%dB", n)
}

// sweepPoint is one resolved point: the registered source name plus the
// four systems to replay it under.
type sweepPoint struct {
	app                  string
	ideal, cc, scoma, rn config.System
}

// newSweepPoint sizes a point's four systems to its trace's header, the
// label landing in their names for progress logs; a threshold-axis value
// also sets R-NUMA's relocation threshold. A header no machine can
// replay fails (traceSystem).
func newSweepPoint(app string, hdr tracefile.Header, axis Axis, v SweepValue, label string) (sweepPoint, error) {
	pt := sweepPoint{app: app}
	for _, s := range []struct {
		into *config.System
		sys  config.System
	}{
		{&pt.ideal, config.Ideal()},
		{&pt.cc, config.Base(config.CCNUMA)},
		{&pt.scoma, config.Base(config.SCOMA)},
		{&pt.rn, config.Base(config.RNUMA)},
	} {
		sys, err := traceSystem(s.sys, hdr)
		if err != nil {
			return pt, err
		}
		sys.Name += " " + label
		*s.into = sys
	}
	if axis == AxisThreshold {
		pt.rn.Threshold = int(v.Num)
	}
	return pt, nil
}

// pointOf validates one axis value against the header of the trace it
// applies to, reading nothing but the header: it names the point the way
// reports print it and, on a transform axis, builds the transform's pure
// form, whose header is the variant's. The variant is named
// "<name>@<point>". The threshold axis is a configuration change and
// maps nothing (nil).
func pointOf(hdr tracefile.Header, axis Axis, v SweepValue) (string, *tracefile.Map, error) {
	n := int(v.Num)
	if axis != AxisDilate && (v.Den != 1 || n < 1) {
		return "", nil, fmt.Errorf("harness: %s %s must be a positive integer", axis, v)
	}
	var label string
	var m tracefile.Map
	var err error
	switch axis {
	case AxisNodes:
		if hdr.CPUs%n != 0 {
			return "", nil, fmt.Errorf("harness: trace %s has %d CPUs, not divisible across %d nodes", hdr.Name, hdr.CPUs, n)
		}
		label = fmt.Sprintf("%dn x %dcpu", n, hdr.CPUs/n)
		m, err = tracefile.RetargetMap(hdr, tracefile.RetargetSpec{
			Nodes: n, Policy: tracefile.RoundRobin(), Name: fmt.Sprintf("%s@%dn", hdr.Name, n)})
	case AxisDilate:
		label = "x" + v.String()
		m, err = tracefile.DilateMap(hdr, tracefile.DilateSpec{
			Num: v.Num, Den: v.Den, Name: fmt.Sprintf("%s@x%s", hdr.Name, v)})
	case AxisBlockSize, AxisPageSize:
		spec := tracefile.GeometrySpec{Name: fmt.Sprintf("%s@%s%d", hdr.Name, axis, n)}
		if axis == AxisPageSize {
			label, spec.PageBytes = "p="+humanBytes(n), n
		} else {
			label, spec.BlockBytes = "b="+humanBytes(n), n
		}
		m, err = tracefile.RetargetGeometryMap(hdr, spec)
	case AxisThreshold:
		return fmt.Sprintf("T=%d", n), nil, nil
	default:
		return "", nil, fmt.Errorf("harness: unknown sweep axis %v", axis)
	}
	if err != nil {
		return "", nil, fmt.Errorf("harness: %s %s on %s: %w", axis, v, hdr.Name, err)
	}
	return label, &m, nil
}

// CheckPoints validates a sweep's values along axis, or with valuesB a
// grid's cells (the axis transform first, then axisB's), against a
// capture's header alone: each point's transform, and the machine its
// replayed header needs. It runs the checks Sweep and SweepGrid run on
// every point before reading a record (pointOf, newSweepPoint), so a
// value it accepts they accept too. The daemon checks each request with
// it at submission.
func CheckPoints(hdr tracefile.Header, axis Axis, values []SweepValue, axisB Axis, valuesB []SweepValue) error {
	for _, x := range values {
		_, m, err := pointOf(hdr, axis, x)
		if err != nil {
			return err
		}
		xh := hdr
		if m != nil {
			xh = m.Header
		}
		if len(valuesB) == 0 {
			_, err = traceSystem(config.System{}, xh)
		} else { // the cells along x are a sweep of the x variant
			err = CheckPoints(xh, axisB, valuesB, axisB, nil)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Sweep transforms the in-memory trace encoding along one axis and
// replays every point under CC-NUMA, S-COMA, and R-NUMA plus the
// same-configuration ideal baseline: one line over the capture.
// Transformed sources register under "<name>@<point>", so repeated and
// overlapping sweeps share simulations through the memo cache. Points
// come back sorted by value; duplicate values collapse to one point.
//
// Every point's store key comes from the trace memo when this process
// has derived it before, so a warm resubmission decodes nothing; a
// point's variant reads the capture's one decode through the transform's
// map, and is mapped only when its key is unknown or a simulation reads it.
func (h *Harness) Sweep(data []byte, axis Axis, values []SweepValue) ([]AxisPoint, string, error) {
	if len(values) == 0 {
		return nil, "", fmt.Errorf("harness: %s sweep over no values", axis)
	}
	in, err := openCapture(data, &h.decodes)
	if err != nil {
		return nil, "", err
	}
	// A threshold line replays the capture itself, registered under an
	// axis-tagged name so it cannot collide with a same-named catalog
	// generator or an untransformed -traces row.
	in.name = fmt.Sprintf("%s@%s", in.hdr.Name, axis)
	vals := normalizeSweepValues(values)
	pts, labels, err := h.line(in, axis, vals, "")
	if err != nil {
		return nil, "", err
	}
	cells, err := h.cells(pts)
	if err != nil {
		return nil, "", err
	}
	out := make([]AxisPoint, len(cells))
	for i, c := range cells {
		out[i] = AxisPoint{Axis: axis, Value: vals[i], Label: labels[i], GridCell: c}
	}
	return out, in.hdr.Name, nil
}

// line resolves one line of points, v read at each of vals along axis,
// and returns them with their labels: every point is checked (pointOf,
// newSweepPoint) and its source registered. A transform point registers
// its variant of v. A threshold line registers v itself, which all its
// points replay, and forks them from one trunk replay of it (fork.go).
// prefix leads each point's label in its systems' names.
func (h *Harness) line(v *variant, axis Axis, vals []SweepValue, prefix string) ([]sweepPoint, []string, error) {
	if axis == AxisThreshold {
		if err := h.registerVariant(v); err != nil {
			return nil, nil, err
		}
	}
	pts := make([]sweepPoint, len(vals))
	labels := make([]string, len(vals))
	for i, val := range vals {
		label, m, err := pointOf(v.hdr, axis, val)
		if err != nil {
			return nil, nil, err
		}
		pv := v
		if m != nil {
			pv = v.then(axis, val, m)
			if err := h.registerVariant(pv); err != nil {
				return nil, nil, err
			}
		}
		if pts[i], err = newSweepPoint(pv.name, pv.hdr, axis, val, prefix+label); err != nil {
			return nil, nil, err
		}
		labels[i] = label
	}
	// Threshold points replay one trace and differ only in T, so they
	// share a prefix: one trunk at the largest threshold replays it once,
	// and each point forks from its watermark.
	if axis == AxisThreshold && len(pts) > 1 {
		if err := h.forkThresholdPoints(v, pts); err != nil {
			return nil, nil, err
		}
	}
	return pts, labels, nil
}

// cells runs resolved points: one plan of all their simulations,
// prefetched, then each point's normalized cell read from the store, in
// order.
func (h *Harness) cells(pts []sweepPoint) ([]GridCell, error) {
	plan := NewPlan()
	for _, p := range pts {
		plan.AddRuns([]string{p.app}, p.ideal, p.cc, p.scoma, p.rn)
	}
	h.Prefetch(plan)
	out := make([]GridCell, len(pts))
	for i, p := range pts {
		base, err := h.Run(p.app, p.ideal)
		if err != nil {
			return nil, err
		}
		out[i] = GridCell{Nodes: p.ideal.Nodes, CPUsPerNode: p.ideal.CPUsPerNode}
		for _, c := range []struct {
			sys  config.System
			into *float64
		}{{p.cc, &out[i].CCNUMA}, {p.scoma, &out[i].SCOMA}, {p.rn, &out[i].RNUMA}} {
			run, err := h.Run(p.app, c.sys)
			if err != nil {
				return nil, err
			}
			*c.into = run.Normalized(base)
		}
	}
	return out, nil
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
