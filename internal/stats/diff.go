package stats

import (
	"crypto/sha256"
	"fmt"
	"math"
	"reflect"
	"sort"
)

// This file implements run-level diffing: the per-counter delta table
// that turns "did this change regress anything?" into one comparison.
// Trace diffs (tracefile.Diff) explain where two captures' streams
// diverge; a run diff explains how two *replays* differ — every counter
// side by side with absolute and relative deltas, plus a digest
// comparison of the per-page refetch distribution, the NUMAscope-style
// delta analysis over this simulator's counter set.

// CounterDelta is one counter's comparison between two runs.
type CounterDelta struct {
	// Name is the stats.Run field name (ExecCycles, Refetches, ...).
	Name string
	// A and B are the two runs' values.
	A, B int64
	// Delta is B - A.
	Delta int64
}

// RelPct returns the relative change in percent (B vs A). When A is zero
// the ratio is undefined; it reports +100 per unit appearing from nothing
// only as ±Inf would mislead, so callers render it as "new".
func (c CounterDelta) RelPct() (pct float64, defined bool) {
	if c.A == 0 {
		return 0, c.Delta == 0
	}
	return 100 * float64(c.Delta) / float64(c.A), true
}

// RunDelta is a full per-counter comparison of two runs.
type RunDelta struct {
	// Counters holds every int64 counter of stats.Run in declaration
	// order, promoted fields included (future counters join
	// automatically — the walk is by reflection, not a hand-kept list).
	Counters []CounterDelta
	// Differing counts entries with a nonzero delta.
	Differing int
	// RefetchDigestA/B digest each run's per-(node,page) refetch map
	// (sorted key/count pairs); equal digests mean the full Figure-5
	// distribution matches, not just the refetch total.
	RefetchDigestA, RefetchDigestB string
	// RefetchPagesDiffering counts (node, page) keys whose refetch
	// counts differ between the two maps (keys missing from one side
	// count as differing).
	RefetchPagesDiffering int
}

// Identical reports whether the two runs matched on every counter and on
// the full refetch distribution.
func (d *RunDelta) Identical() bool {
	return d.Differing == 0 && d.RefetchPagesDiffering == 0 &&
		d.RefetchDigestA == d.RefetchDigestB
}

// TimingCounter reports whether a counter name measures timing or
// contention (cycle totals) rather than structure (event counts). The
// distinction drives diffstats' tolerance mode: a change that shifts only
// cycle totals is a performance delta a CI gate may accept within a band,
// while any structural counter change means the two replays took
// different protocol actions and must always fail.
func TimingCounter(name string) bool {
	switch name {
	case "ExecCycles", "BusWaitCycles", "NIWaitCycles", "RADWaitCycles":
		return true
	}
	return false
}

// ToleranceResult classifies a RunDelta under a ±pct band on timing
// counters: structural differences always fail; timing counters fail only
// beyond the band.
type ToleranceResult struct {
	// Structural holds differing non-timing counters (always failures).
	Structural []CounterDelta
	// OutOfBand holds timing counters whose relative change exceeds the
	// band (or appeared from zero), also failures.
	OutOfBand []CounterDelta
	// WithinBand holds timing counters that differ inside the band —
	// reported as warnings, not failures.
	WithinBand []CounterDelta
	// RefetchDiffers reports a per-page refetch distribution change,
	// which is structural regardless of the refetch totals.
	RefetchDiffers bool
	// Pct is the band the classification used.
	Pct float64
}

// OK reports whether the delta passes under the tolerance: nothing
// structural changed and every timing change stayed within the band.
func (r *ToleranceResult) OK() bool {
	return len(r.Structural) == 0 && len(r.OutOfBand) == 0 && !r.RefetchDiffers
}

// Tolerance classifies the delta under a ±pct band on timing counters.
func (d *RunDelta) Tolerance(pct float64) ToleranceResult {
	r := ToleranceResult{Pct: pct}
	for _, c := range d.Counters {
		if c.Delta == 0 {
			continue
		}
		if !TimingCounter(c.Name) {
			r.Structural = append(r.Structural, c)
			continue
		}
		// A timing counter appearing from zero has no defined relative
		// change; treat it as out of band rather than silently passing.
		if rel, ok := c.RelPct(); ok && math.Abs(rel) <= pct {
			r.WithinBand = append(r.WithinBand, c)
		} else {
			r.OutOfBand = append(r.OutOfBand, c)
		}
	}
	r.RefetchDiffers = d.RefetchDigestA != d.RefetchDigestB
	return r
}

// RefetchDigest hashes the run's sorted (node, page, count) refetch list
// into a short hex digest — the same pinning the golden-stats fixtures
// use, exposed so delta tables and CI artifacts can compare
// distributions without materializing them.
func (r *Run) RefetchDigest() string {
	keys := make([]PageKey, 0, len(r.RefetchByPage))
	for k := range r.RefetchByPage {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Node != keys[j].Node {
			return keys[i].Node < keys[j].Node
		}
		return keys[i].Page < keys[j].Page
	})
	hash := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(hash, "%d/%d:%d\n", k.Node, k.Page, r.RefetchByPage[k])
	}
	return fmt.Sprintf("%x", hash.Sum(nil)[:12])
}

// Diff compares two runs counter by counter. Every int64 field of
// stats.Run participates, the embedded telemetry.Counters' included, in
// declaration order; the per-page refetch maps are compared by digest
// and by per-key count.
func Diff(a, b *Run) *RunDelta {
	d := &RunDelta{
		RefetchDigestA: a.RefetchDigest(),
		RefetchDigestB: b.RefetchDigest(),
	}
	va, vb := reflect.ValueOf(*a), reflect.ValueOf(*b)
	for _, f := range reflect.VisibleFields(va.Type()) {
		if f.Type.Kind() != reflect.Int64 {
			continue
		}
		c := CounterDelta{
			Name: f.Name,
			A:    va.FieldByIndex(f.Index).Int(),
			B:    vb.FieldByIndex(f.Index).Int(),
		}
		c.Delta = c.B - c.A
		if c.Delta != 0 {
			d.Differing++
		}
		d.Counters = append(d.Counters, c)
	}
	for k, ca := range a.RefetchByPage {
		if b.RefetchByPage[k] != ca {
			d.RefetchPagesDiffering++
		}
	}
	for k := range b.RefetchByPage {
		if _, ok := a.RefetchByPage[k]; !ok {
			d.RefetchPagesDiffering++
		}
	}
	return d
}
