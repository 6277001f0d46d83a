package machine

import (
	"math"
	"reflect"
	"testing"

	"rnuma/internal/addr"
	"rnuma/internal/config"
	"rnuma/internal/stats"
	"rnuma/internal/telemetry"
	"rnuma/internal/trace"
)

// relocRefs is the TestRNUMARelocation traffic: node 1 sweeps four remote
// pages repeatedly, so every page refetches past the threshold and
// relocates — the pattern that exercises every probe hook.
func relocRefs() []trace.Ref {
	var refs []trace.Ref
	for pass := 0; pass < 12; pass++ {
		for _, page := range []addr.PageNum{0, 2, 4, 6} {
			for off := 0; off < 8; off++ {
				refs = append(refs, trace.Ref{Page: page, Off: uint16(off)})
			}
		}
	}
	return refs
}

// TestTelemetryIntervalInvariants pins the probe's accounting against the
// run it windows: contiguous intervals whose deltas sum to the run's
// totals, traffic matrices that sum to the window's remote fetches, and
// one event per relocation at exactly the threshold count.
func TestTelemetryIntervalInvariants(t *testing.T) {
	const window = 100 // not a divisor of the 384-ref trace: last window is partial
	sys := tinySys(config.RNUMA)
	m, err := New(sys, WithHomes(evenOddHomes), WithVerify(),
		WithTelemetry(telemetry.Config{Window: window}))
	if err != nil {
		t.Fatal(err)
	}
	run, err := m.Run(streams4(map[int][]trace.Ref{2: relocRefs()}))
	if err != nil {
		t.Fatal(err)
	}

	tl := run.Timeline
	if tl == nil {
		t.Fatal("probed run carries no timeline")
	}
	if tl.Window != window || tl.Nodes != sys.Nodes {
		t.Fatalf("timeline shape window=%d nodes=%d, want %d/%d", tl.Window, tl.Nodes, window, sys.Nodes)
	}
	if len(tl.Intervals) != int((run.Refs+window-1)/window) {
		t.Fatalf("%d intervals for %d refs at window %d", len(tl.Intervals), run.Refs, window)
	}

	var sum telemetry.Counters
	for i, iv := range tl.Intervals {
		if iv.Index != int64(i) {
			t.Errorf("interval %d has index %d", i, iv.Index)
		}
		if iv.StartRef != int64(i)*window {
			t.Errorf("interval %d starts at %d, want %d", i, iv.StartRef, int64(i)*window)
		}
		wantEnd := (int64(i) + 1) * window
		if i == len(tl.Intervals)-1 {
			wantEnd = run.Refs
		}
		if iv.EndRef != wantEnd {
			t.Errorf("interval %d ends at %d, want %d", i, iv.EndRef, wantEnd)
		}
		var traffic int64
		for _, v := range iv.Traffic {
			traffic += v
		}
		if traffic != iv.Delta.RemoteFetches {
			t.Errorf("interval %d traffic sums to %d, delta says %d remote fetches", i, traffic, iv.Delta.RemoteFetches)
		}
		if iv.Delta.RemoteFetches == 0 && iv.Traffic != nil {
			t.Errorf("interval %d is quiet but stores a traffic matrix", i)
		}
		sum.Add(iv.Delta)
	}
	if sum != run.Counters {
		t.Errorf("interval deltas sum to %+v,\nrun totals are  %+v", sum, run.Counters)
	}

	if int64(len(tl.Events)) != run.Relocations {
		t.Fatalf("%d events for %d relocations", len(tl.Events), run.Relocations)
	}
	prev := int64(0)
	for i, e := range tl.Events {
		if e.Count != uint32(sys.Threshold) {
			t.Errorf("event %d crossed at count %d, want threshold %d", i, e.Count, sys.Threshold)
		}
		if e.Ref < prev || e.Ref > run.Refs {
			t.Errorf("event %d at ref %d out of order or range (prev %d, total %d)", i, e.Ref, prev, run.Refs)
		}
		prev = e.Ref
		if e.Window != (e.Ref-1)/window {
			t.Errorf("event %d window %d, want %d", i, e.Window, (e.Ref-1)/window)
		}
	}

	var total int64
	for _, v := range tl.TotalTraffic() {
		total += v
	}
	if total != run.RemoteFetches {
		t.Errorf("total traffic %d, run saw %d remote fetches", total, run.RemoteFetches)
	}
}

// TestTelemetryObservationDoesNotPerturb: a probed run's counters are
// bit-identical to the unprobed run's — the probe only reads.
func TestTelemetryObservationDoesNotPerturb(t *testing.T) {
	for _, p := range []config.Protocol{config.CCNUMA, config.SCOMA, config.RNUMA} {
		sys := tinySys(p)
		plain, err := New(sys, WithHomes(evenOddHomes))
		if err != nil {
			t.Fatal(err)
		}
		a, err := plain.Run(snapStreams(11))
		if err != nil {
			t.Fatal(err)
		}
		probed, err := New(sys, WithHomes(evenOddHomes), WithTelemetry(telemetry.Config{Window: 64}))
		if err != nil {
			t.Fatal(err)
		}
		b, err := probed.Run(snapStreams(11))
		if err != nil {
			t.Fatal(err)
		}
		if d := stats.Diff(a, b); !d.Identical() {
			t.Errorf("%v: probe perturbed %d counters", p, d.Differing)
		}
	}
}

// TestTelemetryDisabledZeroCost: a disabled configuration is a strict
// no-op — no probe, the sentinel boundary, no timeline, and exactly the
// allocation profile of a machine that never heard of telemetry.
func TestTelemetryDisabledZeroCost(t *testing.T) {
	m, err := New(tinySys(config.RNUMA), WithHomes(evenOddHomes), WithTelemetry(telemetry.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	if m.probe != nil || m.probeNext != math.MaxInt64 {
		t.Fatalf("disabled telemetry left probe=%v probeNext=%d", m.probe, m.probeNext)
	}
	run, err := m.Run(streams4(map[int][]trace.Ref{2: relocRefs()}))
	if err != nil {
		t.Fatal(err)
	}
	if run.Timeline != nil {
		t.Error("disabled telemetry produced a timeline")
	}

	// Both measurements pass the same number of pre-built options, so the
	// only possible difference is what the disabled option itself does.
	measure := func(extra Option) float64 {
		return testing.AllocsPerRun(5, func() {
			m, err := New(tinySys(config.RNUMA), WithHomes(evenOddHomes), extra)
			if err != nil {
				panic(err)
			}
			if _, err := m.Run(streams4(map[int][]trace.Ref{2: relocRefs()})); err != nil {
				panic(err)
			}
		})
	}
	off, disabled := measure(WithHomes(evenOddHomes)), measure(WithTelemetry(telemetry.Config{}))
	if disabled != off {
		t.Errorf("disabled telemetry allocates %.0f per run, baseline %.0f", disabled, off)
	}
}

// TestTelemetrySnapshotCompatibility: a checkpoint remembers whether its
// machine was probed, and restores only into a matching machine; a
// matching restore continues the series exactly (mid-window fork).
func TestTelemetrySnapshotCompatibility(t *testing.T) {
	sys := tinySys(config.RNUMA)
	tcfg := telemetry.Config{Window: 130} // mid-window at the 300-ref pause

	probed := func(opts ...Option) *Machine {
		t.Helper()
		m, err := New(sys, append([]Option{WithHomes(evenOddHomes)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	full, err := probed(WithTelemetry(tcfg)).Run(streams4(map[int][]trace.Ref{2: relocRefs()}))
	if err != nil {
		t.Fatal(err)
	}

	trunk := probed(WithTelemetry(tcfg))
	if err := trunk.Start(streams4(map[int][]trace.Ref{2: relocRefs()})); err != nil {
		t.Fatal(err)
	}
	if _, err := trunk.RunUntilRefs(300); err != nil {
		t.Fatal(err)
	}
	snap, err := trunk.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Probe == nil {
		t.Fatal("probed machine's snapshot carries no probe cursor")
	}

	// Presence mismatch both ways.
	if err := probed().Restore(snap); err == nil {
		t.Error("probed checkpoint restored into an unprobed machine")
	}
	plainTrunk := probed()
	if err := plainTrunk.Start(streams4(map[int][]trace.Ref{2: relocRefs()})); err != nil {
		t.Fatal(err)
	}
	if _, err := plainTrunk.RunUntilRefs(300); err != nil {
		t.Fatal(err)
	}
	plainSnap, err := plainTrunk.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := probed(WithTelemetry(tcfg)).Restore(plainSnap); err == nil {
		t.Error("unprobed checkpoint restored into a probed machine")
	}

	// The matching restore continues the series bit-identically.
	fork := probed(WithTelemetry(tcfg))
	if err := fork.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if err := fork.ResumeWith(streams4(map[int][]trace.Ref{2: relocRefs()})); err != nil {
		t.Fatal(err)
	}
	forked, err := fork.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full, forked) {
		t.Errorf("mid-window fork diverged:\n full %+v\n fork %+v", full.Timeline, forked.Timeline)
	}
}
