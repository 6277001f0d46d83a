package machine

import (
	"reflect"
	"testing"

	"rnuma/internal/addr"
	"rnuma/internal/config"
	"rnuma/internal/trace"
)

// snapStreams builds the deterministic traffic the snapshot tests fork:
// heavy sharing over a few pages so every protocol exercises caches,
// invalidations, replacements, and (for R-NUMA) relocations.
func snapStreams(seed int64) []trace.Stream {
	return randomStreams(seed, 4, 10, 1200, 0.35)
}

// forkAt replays the streams to completion on one machine while pausing a
// twin at k refs, snapshotting, restoring into a third machine, and
// resuming it over fresh streams. Returns (uninterrupted, forked) runs.
func forkAt(t *testing.T, sys config.System, seed int64, k int64) (full, forked interface{}) {
	t.Helper()
	base, err := New(sys, WithHomes(evenOddHomes))
	if err != nil {
		t.Fatal(err)
	}
	fullRun, err := base.Run(snapStreams(seed))
	if err != nil {
		t.Fatal(err)
	}

	trunk, err := New(sys, WithHomes(evenOddHomes))
	if err != nil {
		t.Fatal(err)
	}
	if err := trunk.Start(snapStreams(seed)); err != nil {
		t.Fatal(err)
	}
	if _, err := trunk.RunUntilRefs(k); err != nil {
		t.Fatal(err)
	}
	snap, err := trunk.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	fork, err := New(sys, WithHomes(evenOddHomes))
	if err != nil {
		t.Fatal(err)
	}
	if err := fork.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if err := fork.ResumeWith(snapStreams(seed)); err != nil {
		t.Fatal(err)
	}
	forkRun, err := fork.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return fullRun, forkRun
}

// TestSnapshotForkIdentity: a run forked from a mid-run snapshot finishes
// with statistics identical to the uninterrupted run, under every
// protocol and at fork points from the very start to past the end.
func TestSnapshotForkIdentity(t *testing.T) {
	for _, p := range []config.Protocol{config.CCNUMA, config.SCOMA, config.RNUMA} {
		t.Run(p.String(), func(t *testing.T) {
			for _, k := range []int64{0, 1, 700, 2400, 1 << 30} {
				full, forked := forkAt(t, tinySys(p), 7, k)
				if !reflect.DeepEqual(full, forked) {
					t.Errorf("fork at %d refs diverged:\n full %+v\n fork %+v", k, full, forked)
				}
			}
		})
	}
}

// TestSnapshotRestoreInvariants: a restored machine satisfies the
// directory's structural invariants before a single reference runs.
func TestSnapshotRestoreInvariants(t *testing.T) {
	sys := tinySys(config.RNUMA)
	m, err := New(sys, WithHomes(evenOddHomes))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(snapStreams(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunUntilRefs(900); err != nil {
		t.Fatal(err)
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(sys, WithHomes(evenOddHomes))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if err := r.Directory().Check(); err != nil {
		t.Errorf("restored directory violates invariants: %v", err)
	}
}

// TestSnapshotThresholdFork: restoring into a machine with a different
// relocation threshold is allowed (the fork-sweep use case), and the
// forked run matches a from-scratch run at the fork's threshold when the
// snapshot predates any counter crossing.
func TestSnapshotThresholdFork(t *testing.T) {
	sysHi := tinySys(config.RNUMA)
	sysHi.Threshold = 64
	sysLo := sysHi
	sysLo.Threshold = 8

	base, err := New(sysLo, WithHomes(evenOddHomes))
	if err != nil {
		t.Fatal(err)
	}
	want, err := base.Run(snapStreams(11))
	if err != nil {
		t.Fatal(err)
	}

	trunk, err := New(sysHi, WithHomes(evenOddHomes))
	if err != nil {
		t.Fatal(err)
	}
	if err := trunk.Start(snapStreams(11)); err != nil {
		t.Fatal(err)
	}
	// Pause just before any per-page counter could reach the fork's
	// threshold: the trunk's state is identical to a threshold-8 run here.
	if _, err := trunk.RunUntilCounter(uint32(sysLo.Threshold - 1)); err != nil {
		t.Fatal(err)
	}
	snap, err := trunk.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	fork, err := New(sysLo, WithHomes(evenOddHomes))
	if err != nil {
		t.Fatal(err)
	}
	if err := fork.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if err := fork.ResumeWith(snapStreams(11)); err != nil {
		t.Fatal(err)
	}
	got, err := fork.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("threshold fork diverged:\n want %+v\n got  %+v", want, got)
	}
}

// TestSnapshotErrors covers the guarded misuse paths: snapshotting an
// unstarted or verifying machine, restoring into started/verifying/
// mismatched machines, and resuming with unusable streams.
func TestSnapshotErrors(t *testing.T) {
	sys := tinySys(config.RNUMA)
	m, err := New(sys, WithHomes(evenOddHomes))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Snapshot(); err == nil {
		t.Error("Snapshot before Start accepted")
	}

	v, err := New(sys, WithHomes(evenOddHomes), WithVerify())
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Start(snapStreams(5)); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Snapshot(); err == nil {
		t.Error("Snapshot with verification accepted")
	}

	if err := m.Start(snapStreams(5)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunUntilRefs(500); err != nil {
		t.Fatal(err)
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// Restore into a started machine.
	if err := m.Restore(snap); err == nil {
		t.Error("Restore into a started machine accepted")
	}
	// Restore into a verifying machine.
	v2, err := New(sys, WithHomes(evenOddHomes), WithVerify())
	if err != nil {
		t.Fatal(err)
	}
	if err := v2.Restore(snap); err == nil {
		t.Error("Restore into a verifying machine accepted")
	}
	// Restore into an incompatible configuration (different protocol).
	other, err := New(tinySys(config.SCOMA), WithHomes(evenOddHomes))
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Restore(snap); err == nil {
		t.Error("Restore across protocols accepted")
	}
	// Mangled shape: chop the per-page state.
	bad := *snap
	bad.PageFlags = bad.PageFlags[:len(bad.PageFlags)-1]
	fresh := func() *Machine {
		fm, err := New(sys, WithHomes(evenOddHomes))
		if err != nil {
			t.Fatal(err)
		}
		return fm
	}
	if err := fresh().Restore(&bad); err == nil {
		t.Error("snapshot with inconsistent per-page state accepted")
	}
	bad = *snap
	bad.DirBlocks = append([]addr.BlockNum(nil), snap.DirBlocks...)
	bad.DirBlocks[0] = addr.BlockNum(len(snap.Homes) * sys.Geometry.BlocksPerPage())
	if err := fresh().Restore(&bad); err == nil {
		t.Error("snapshot with a directory block beyond its pages accepted")
	}
	// A consistent per-page state one page past the segment bound.
	bad = *snap
	pages := addr.MaxSegmentBlocks/sys.Geometry.BlocksPerPage() + 1
	bad.Homes = make([]addr.NodeID, pages)
	bad.PageFlags = make([]uint8, pages)
	bad.SCOMAMapped = make([]uint16, pages)
	bad.Seen = make([]bool, pages*sys.Nodes)
	if err := fresh().Restore(&bad); err == nil {
		t.Error("snapshot with a segment beyond the block bound accepted")
	}
	for _, clock := range []int64{-1, 1 << 60} {
		bad = *snap
		bad.CPUs = append([]CPUState(nil), snap.CPUs...)
		bad.CPUs[1].Clock = clock
		if err := fresh().Restore(&bad); err == nil {
			t.Errorf("snapshot with CPU clock %d accepted", clock)
		}
	}
	bad = *snap
	bad.Run = nil
	if err := fresh().Restore(&bad); err == nil {
		t.Error("snapshot without run statistics accepted")
	}

	// ResumeWith: wrong stream count, unseekable streams, unrestored use.
	r := fresh()
	if err := r.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if err := r.ResumeWith(snapStreams(5)[:2]); err == nil {
		t.Error("ResumeWith with a short stream list accepted")
	}
	funcs := make([]trace.Stream, 4)
	for i := range funcs {
		funcs[i] = trace.FuncStream(func() (trace.Ref, bool) { return trace.Ref{}, false })
	}
	if err := r.ResumeWith(funcs); err == nil {
		t.Error("ResumeWith over unseekable streams accepted")
	}
	if err := r.ResumeWith(snapStreams(5)); err != nil {
		t.Fatal(err)
	}
	if err := r.ResumeWith(snapStreams(5)); err == nil {
		t.Error("double ResumeWith accepted")
	}
}

// TestMachineAccessors pins the diagnostic accessors the fork and
// checkpoint tooling relies on.
func TestMachineAccessors(t *testing.T) {
	sys := tinySys(config.RNUMA)
	m, err := New(sys, WithHomes(evenOddHomes))
	if err != nil {
		t.Fatal(err)
	}
	got := m.System()
	if got.Protocol != sys.Protocol || got.Nodes != sys.Nodes || got.Threshold != sys.Threshold {
		t.Errorf("System() = %+v, want the construction config", got)
	}
	if len(m.Nodes()) != sys.Nodes {
		t.Errorf("Nodes() has %d entries, want %d", len(m.Nodes()), sys.Nodes)
	}
	if err := m.Err(); err != nil {
		t.Errorf("Err() on a fresh machine: %v", err)
	}
}
