package stats

import (
	"reflect"
	"testing"

	"rnuma/internal/addr"
	"rnuma/internal/telemetry"
)

// sampleRun builds a run with a few counters and refetch entries set.
func sampleRun() *Run {
	r := NewRun()
	r.ExecCycles = 1000
	r.Refs = 500
	r.L1Hits = 400
	r.RemoteFetches = 50
	r.AddRefetch(1, 7)
	r.AddRefetch(1, 7)
	r.AddRefetch(2, 9)
	return r
}

func TestDiffIdenticalRuns(t *testing.T) {
	a, b := sampleRun(), sampleRun()
	d := Diff(a, b)
	if !d.Identical() {
		t.Fatalf("identical runs diff as different: %+v", d)
	}
	if d.Differing != 0 || d.RefetchPagesDiffering != 0 {
		t.Fatalf("differing counts nonzero: %+v", d)
	}
	if d.RefetchDigestA != d.RefetchDigestB {
		t.Fatal("identical refetch maps digest differently")
	}
}

// TestDiffCoversEveryCounter: the reflective walk must include every
// int64 field of Run, the embedded telemetry.Counters' promoted ones
// included — a counter added later joins automatically — in declaration
// order, which the pinned list fixes for the delta table's rows.
func TestDiffCoversEveryCounter(t *testing.T) {
	d := Diff(NewRun(), NewRun())
	var want []string
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Run{})) {
		if f.Type.Kind() == reflect.Int64 {
			want = append(want, f.Name)
		}
	}
	var got []string
	for _, c := range d.Counters {
		got = append(got, c.Name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("counters %v, want %v", got, want)
	}
	rows := []string{
		"ExecCycles",
		"Refs", "L1Hits", "LocalFills", "BlockCacheHits", "PageCacheHits",
		"RemoteFetches", "Refetches", "Upgrades", "PageFaults", "Allocations",
		"Replacements", "Relocations", "Demotions", "InvalsSent", "WritebacksHome",
		"C2CTransfers", "FlushedBlocks", "TLBShootdowns", "RemotePages", "ThreeHopXfers",
		"BusWaitCycles", "NIWaitCycles", "RADWaitCycles", "RWRefetches",
	}
	if !reflect.DeepEqual(got, rows) {
		t.Fatalf("delta rows %v, want %v", got, rows)
	}
}

func TestDiffPinpointsCounterChange(t *testing.T) {
	a, b := sampleRun(), sampleRun()
	b.RemoteFetches += 5
	b.ExecCycles -= 100
	d := Diff(a, b)
	if d.Identical() {
		t.Fatal("changed runs diff as identical")
	}
	if d.Differing != 2 {
		t.Fatalf("differing = %d, want 2", d.Differing)
	}
	byName := map[string]CounterDelta{}
	for _, c := range d.Counters {
		byName[c.Name] = c
	}
	if c := byName["RemoteFetches"]; c.Delta != 5 || c.A != 50 || c.B != 55 {
		t.Fatalf("RemoteFetches delta: %+v", c)
	}
	if c := byName["ExecCycles"]; c.Delta != -100 {
		t.Fatalf("ExecCycles delta: %+v", c)
	}
	if pct, ok := byName["RemoteFetches"].RelPct(); !ok || pct != 10 {
		t.Fatalf("RemoteFetches rel = %v, %v, want +10%%", pct, ok)
	}
}

func TestDiffRefetchMap(t *testing.T) {
	a, b := sampleRun(), sampleRun()
	b.AddRefetch(3, 11) // new key on B (also bumps the Refetches counter)
	d := Diff(a, b)
	if d.RefetchDigestA == d.RefetchDigestB {
		t.Fatal("different refetch maps share a digest")
	}
	if d.RefetchPagesDiffering != 1 {
		t.Fatalf("refetch pages differing = %d, want 1", d.RefetchPagesDiffering)
	}

	// A key missing from B counts too.
	c := sampleRun()
	delete(c.RefetchByPage, PageKey{Node: addr.NodeID(2), Page: addr.PageNum(9)})
	d = Diff(sampleRun(), c)
	if d.RefetchPagesDiffering != 1 {
		t.Fatalf("missing-key differing = %d, want 1", d.RefetchPagesDiffering)
	}
	if d.Identical() {
		t.Fatal("map-only change reported identical")
	}
}

func TestCounterDeltaRelPct(t *testing.T) {
	if pct, ok := (CounterDelta{A: 0, B: 0}).RelPct(); !ok || pct != 0 {
		t.Fatalf("0->0 rel = %v, %v", pct, ok)
	}
	if _, ok := (CounterDelta{A: 0, B: 5, Delta: 5}).RelPct(); ok {
		t.Fatal("0->5 rel should be undefined")
	}
	if pct, ok := (CounterDelta{A: 200, B: 100, Delta: -100}).RelPct(); !ok || pct != -50 {
		t.Fatalf("200->100 rel = %v, %v", pct, ok)
	}
}

// TestTimingCounterSet pins which counters the tolerance mode treats as
// timing: exactly the cycle totals, nothing structural.
func TestTimingCounterSet(t *testing.T) {
	for _, name := range []string{"ExecCycles", "BusWaitCycles", "NIWaitCycles", "RADWaitCycles"} {
		if !TimingCounter(name) {
			t.Errorf("%s should be a timing counter", name)
		}
	}
	for _, name := range []string{"Refs", "RemoteFetches", "Refetches", "Relocations", "Replacements", ""} {
		if TimingCounter(name) {
			t.Errorf("%s should be structural", name)
		}
	}
}

// TestToleranceClassification: timing counters pass inside the band and
// fail outside it; any structural counter change fails regardless of the
// band; refetch-distribution changes are structural.
func TestToleranceClassification(t *testing.T) {
	a, b := sampleRun(), sampleRun()
	b.ExecCycles = 1009 // +0.9% on 1000

	res := Diff(a, b).Tolerance(1)
	if !res.OK() {
		t.Fatalf("0.9%% timing drift fails a 1%% band: %+v", res)
	}
	if len(res.WithinBand) != 1 || res.WithinBand[0].Name != "ExecCycles" {
		t.Fatalf("WithinBand = %+v, want just ExecCycles", res.WithinBand)
	}

	res = Diff(a, b).Tolerance(0.5)
	if res.OK() || len(res.OutOfBand) != 1 {
		t.Fatalf("0.9%% timing drift passes a 0.5%% band: %+v", res)
	}

	// A negative drift uses the band symmetrically.
	b.ExecCycles = 991
	if res := Diff(a, b).Tolerance(1); !res.OK() {
		t.Fatalf("-0.9%% timing drift fails a 1%% band: %+v", res)
	}

	// Structural counters fail no matter how wide the band.
	b = sampleRun()
	b.RemoteFetches++
	res = Diff(a, b).Tolerance(100)
	if res.OK() || len(res.Structural) != 1 || res.Structural[0].Name != "RemoteFetches" {
		t.Fatalf("structural change slipped through: %+v", res)
	}

	// A timing counter appearing from zero has no relative change and
	// must not silently pass.
	b = sampleRun()
	b.NIWaitCycles = 5
	if res := Diff(a, b).Tolerance(50); res.OK() || len(res.OutOfBand) != 1 {
		t.Fatalf("timing counter from zero passed the band: %+v", res)
	}

	// Refetch distribution changes are structural even when the totals
	// (and hence every counter) agree.
	b = sampleRun()
	delete(b.RefetchByPage, PageKey{Node: 1, Page: 7})
	b.AddRefetch(3, 11)
	b.AddRefetch(3, 11)
	b.Refetches = a.Refetches // keep the counter itself equal
	if res := Diff(a, b).Tolerance(100); res.OK() || !res.RefetchDiffers {
		t.Fatalf("refetch redistribution passed: %+v", res)
	}
}

// TestDiffIgnoresTimeline: the timeline rides on Run as a pointer, so the
// reflective int64 walk never sees it — two runs equal on counters are
// identical no matter what they captured.
func TestDiffIgnoresTimeline(t *testing.T) {
	a, b := sampleRun(), sampleRun()
	b.Timeline = &telemetry.Timeline{Window: 64, Nodes: 2}
	if d := Diff(a, b); !d.Identical() {
		t.Fatalf("timeline presence made runs differ: %+v", d)
	}
}
