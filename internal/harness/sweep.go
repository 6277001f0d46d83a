package harness

import (
	"fmt"
	"strconv"
	"strings"

	"rnuma/internal/config"
	"rnuma/internal/tracefile"
)

// This file implements the sensitivity-sweep engine: one recorded trace
// transformed along a single parameter axis and replayed under all three
// designs at every point. The paper's core claim is robustness — R-NUMA
// stays within a small constant of the better base protocol across
// machine and workload parameters — so every axis re-checks that claim
// against a different knob: machine size (shape retarget), processor
// speed (gap dilation), coherence granularity (geometry retarget), page
// size (geometry retarget), and the relocation threshold (a config
// change, no transform needed).

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

// AxisPoint is one configuration of a sensitivity sweep: the three base
// protocols' execution times normalized to the ideal machine (infinite
// block cache) of the same shape, geometry, and trace variant.
type AxisPoint struct {
	Axis  Axis
	Value SweepValue
	// Label names the point the way the report prints it ("8n x 4cpu",
	// "x1/2", "b=64B", "T=256").
	Label string
	// Nodes and CPUsPerNode are the simulated machine shape at this point.
	Nodes       int
	CPUsPerNode int
	// Normalized execution times.
	CCNUMA, SCOMA, RNUMA float64
}

// RNUMAOverBest reports R-NUMA's time relative to the better base
// protocol at this point (the paper's bounded-worst-case ratio).
func (p AxisPoint) RNUMAOverBest() float64 {
	best := p.CCNUMA
	if p.SCOMA < best {
		best = p.SCOMA
	}
	if best == 0 {
		return 0
	}
	return p.RNUMA / best
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

// sweepSystem shapes a base configuration to one sweep point: the
// machine shape and geometry come from the (possibly transformed) trace
// header, and the label lands in the name for progress logs.
func sweepSystem(sys config.System, hdr tracefile.Header, label string) config.System {
	sys.Nodes = hdr.Nodes
	sys.CPUsPerNode = hdr.CPUs / hdr.Nodes
	sys.Geometry = hdr.Geometry
	sys.Name = fmt.Sprintf("%s %s", sys.Name, label)
	return sys
}

// sweepPoint is one resolved point of a sweep: the registered source
// name plus the four systems to replay it under.
type sweepPoint struct {
	value                SweepValue
	label                string
	app                  string
	ideal, cc, scoma, rn config.System
}

// newSweepPoint sizes a point's four systems to its trace's header; a
// threshold-axis value also sets R-NUMA's relocation threshold.
func newSweepPoint(app string, hdr tracefile.Header, axis Axis, v SweepValue, label string) sweepPoint {
	pt := sweepPoint{value: v, label: label, app: app}
	pt.ideal = sweepSystem(config.Ideal(), hdr, label)
	pt.cc = sweepSystem(config.Base(config.CCNUMA), hdr, label)
	pt.scoma = sweepSystem(config.Base(config.SCOMA), hdr, label)
	pt.rn = sweepSystem(config.Base(config.RNUMA), hdr, label)
	if axis == AxisThreshold {
		pt.rn.Threshold = int(v.Num)
	}
	return pt
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
// capture's header alone. It runs the check Sweep and SweepGrid run on
// every point before reading a record (pointOf), so a value it accepts
// they accept too. The daemon checks each request with it at submission.
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
		for _, y := range valuesB {
			if _, _, err := pointOf(xh, axisB, y); err != nil {
				return err
			}
		}
	}
	return nil
}

// Sweep transforms the in-memory trace encoding along one axis and
// replays every point under CC-NUMA, S-COMA, and R-NUMA plus the
// same-configuration ideal baseline. Transformed sources register under
// "<name>@<point>", so repeated and overlapping sweeps share simulations
// through the memo cache. Points come back sorted by value; duplicate
// values collapse to one point.
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
	hdr := in.hdr
	vals := normalizeSweepValues(values)

	// The threshold axis replays the capture unchanged; register it once
	// under an axis-tagged name so it cannot collide with a same-named
	// catalog generator or an untransformed -traces row.
	shared := ""
	if axis == AxisThreshold {
		shared = fmt.Sprintf("%s@%s", hdr.Name, axis)
		if err := h.Register(RenamedSource(in.source(), shared)); err != nil {
			return nil, "", err
		}
	}

	plan := NewPlan()
	pts := make([]sweepPoint, 0, len(vals))
	for _, v := range vals {
		label, m, err := pointOf(hdr, axis, v)
		if err != nil {
			return nil, "", err
		}
		app, vh := shared, hdr
		if m != nil {
			pv := in.then(axis, v, m)
			if err := h.registerVariant(pv); err != nil {
				return nil, "", err
			}
			app, vh = pv.hdr.Name, pv.hdr
		}
		pt := newSweepPoint(app, vh, axis, v, label)
		plan.AddRuns([]string{pt.app}, pt.ideal, pt.cc, pt.scoma, pt.rn)
		pts = append(pts, pt)
	}

	// Threshold points replay the identical trace and differ only in T, so
	// they share a prefix: run it once on a trunk machine and fork each
	// point from a snapshot instead of replaying it per point (fork.go).
	if axis == AxisThreshold && len(pts) > 1 {
		if err := h.forkThresholdPoints(in, pts); err != nil {
			return nil, "", err
		}
	}

	h.Prefetch(plan)
	out := make([]AxisPoint, 0, len(pts))
	for _, p := range pts {
		c, err := h.gridCell(p)
		if err != nil {
			return nil, "", err
		}
		out = append(out, c.point(axis, p.value, p.label))
	}
	return out, hdr.Name, nil
}

// renamedSource registers an existing source under a different
// application name (the content key is unchanged, so identical content
// still shares simulations).
type renamedSource struct {
	Source
	name string
}

func (r *renamedSource) Name() string { return r.name }

// RenamedSource wraps a source under a different application name. The
// content key is unchanged, so identical content still shares
// simulations through the store; the server uses it to disambiguate
// uploads whose embedded names collide.
func RenamedSource(src Source, name string) Source {
	return &renamedSource{Source: src, name: name}
}
