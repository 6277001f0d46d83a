package machine

import (
	"testing"

	"rnuma/internal/config"
	"rnuma/internal/trace"
)

func TestBarrierSynchronizes(t *testing.T) {
	m := newTiny(t, config.CCNUMA)
	// CPU 0 does a long phase then a barrier; CPU 3 a short phase then a
	// barrier, then one more reference. CPU 3's post-barrier reference
	// must start after CPU 0's phase completes.
	long := make([]trace.Ref, 0, 101)
	for i := 0; i < 100; i++ {
		long = append(long, trace.Ref{Page: 0, Off: uint16(i % 8), Gap: 1000})
	}
	long = append(long, trace.BarrierRef())
	short := []trace.Ref{
		{Page: 1, Off: 0},
		trace.BarrierRef(),
		{Page: 1, Off: 1},
	}
	run, err := m.Run(streams4(map[int][]trace.Ref{0: long, 3: short}))
	if err != nil {
		t.Fatal(err)
	}
	// CPU 3 finishes after CPU 0's 100k-cycle phase despite doing almost
	// nothing itself.
	if run.ExecCycles < 100*1000 {
		t.Errorf("exec = %d; barrier did not hold CPU 3 back", run.ExecCycles)
	}
	cpu3 := m.cpus[3]
	if cpu3.Finish < 100*1000 {
		t.Errorf("cpu3 finished at %d, before the long phase ended", cpu3.Finish)
	}
}

func TestBarrierIdleCPUsDoNotDeadlock(t *testing.T) {
	m := newTiny(t, config.CCNUMA)
	// Only CPU 0 has barriers; the others run out immediately. The run
	// must terminate (done CPUs leave the barrier quorum).
	refs := []trace.Ref{
		{Page: 0, Off: 0},
		trace.BarrierRef(),
		{Page: 0, Off: 1},
		trace.BarrierRef(),
		{Page: 0, Off: 2},
	}
	run, err := m.Run(streams4(map[int][]trace.Ref{0: refs}))
	if err != nil {
		t.Fatal(err)
	}
	if run.Refs != 3 {
		t.Errorf("refs = %d, want 3", run.Refs)
	}
}

func TestBarrierMismatchedCounts(t *testing.T) {
	m := newTiny(t, config.CCNUMA)
	// CPU 0 has 2 barriers, CPU 1 has 1. After CPU 1 finishes, CPU 0's
	// second barrier releases alone.
	a := []trace.Ref{
		{Page: 0, Off: 0},
		trace.BarrierRef(),
		{Page: 0, Off: 1},
		trace.BarrierRef(),
		{Page: 0, Off: 2},
	}
	b := []trace.Ref{
		{Page: 0, Off: 3},
		trace.BarrierRef(),
		{Page: 0, Off: 4},
	}
	run, err := m.Run(streams4(map[int][]trace.Ref{0: a, 1: b}))
	if err != nil {
		t.Fatal(err)
	}
	if run.Refs != 5 {
		t.Errorf("refs = %d, want 5", run.Refs)
	}
}

func TestBarrierAllWaitersResumeTogether(t *testing.T) {
	m := newTiny(t, config.CCNUMA)
	// Two CPUs with very different phase lengths; after the barrier both
	// resume at the same time, so their finish times differ only by the
	// final reference latencies.
	a := []trace.Ref{{Page: 0, Off: 0, Gap: 60000}, trace.BarrierRef(), {Page: 0, Off: 1}}
	b := []trace.Ref{{Page: 1, Off: 0}, trace.BarrierRef(), {Page: 1, Off: 1}}
	if _, err := m.Run(streams4(map[int][]trace.Ref{0: a, 1: b})); err != nil {
		t.Fatal(err)
	}
	d := m.cpus[0].Finish - m.cpus[1].Finish
	if d < 0 {
		d = -d
	}
	if d > 10000 {
		t.Errorf("finish skew after barrier = %d cycles, want small", d)
	}
}

// TestGapTieDoesNotDefer pins the event loop's gap-deferral rule: a CPU
// whose compute gap lands its clock exactly on a lower-ID CPU's clock
// issues the reference at once (it defers only when another CPU is
// strictly earlier), while one cycle more defers it behind that CPU.
func TestGapTieDoesNotDefer(t *testing.T) {
	local := trace.Ref{Page: 1, Off: 0} // node 1 owns odd pages: CPUs 2 and 3
	// CPUs 0 and 1 idle; CPU 2's first reference alone sets its clock.
	probe := newTiny(t, config.CCNUMA)
	run, err := probe.Run(streams4(map[int][]trace.Ref{2: {local}}))
	if err != nil {
		t.Fatal(err)
	}
	lat := run.ExecCycles
	if lat <= 0 || lat >= 1<<16-1 {
		t.Fatalf("first-reference latency %d does not fit a gap", lat)
	}

	for _, tc := range []struct {
		gap    int64
		defers bool
	}{{lat - 1, false}, {lat, false}, {lat + 1, true}} {
		m := newTiny(t, config.CCNUMA)
		err := m.Start(streams4(map[int][]trace.Ref{
			2: {local, {Page: 1, Off: 1}},
			3: {{Page: 3, Off: 0, Gap: uint16(tc.gap)}},
		}))
		if err != nil {
			t.Fatal(err)
		}
		// Two references in: CPU 2's first, then either CPU 3's (issued
		// at once) or CPU 2's second (CPU 3 deferred behind it).
		if _, err := m.RunUntilRefs(2); err != nil {
			t.Fatal(err)
		}
		c2, c3 := m.cpus[2], m.cpus[3]
		deferred := c3.HasPending && c3.Refs == 0 && c2.Refs == 2
		issued := !c3.HasPending && c3.Refs == 1 && c2.Refs == 1
		if deferred != tc.defers || issued == tc.defers {
			t.Errorf("gap %d (CPU 2 at %d): CPU 2 ran %d refs, CPU 3 ran %d with pending=%v; want deferred=%v",
				tc.gap, lat, c2.Refs, c3.Refs, c3.HasPending, tc.defers)
		}
	}
}
