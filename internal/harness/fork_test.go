package harness

import (
	"bytes"
	"reflect"
	"testing"

	"rnuma/internal/config"
	"rnuma/internal/telemetry"
	"rnuma/internal/tracefile"
)

// TestForkReplayIdentity is the snapshot/fork acceptance proof: for every
// catalog application and every protocol, replaying a recorded trace
// partway, snapshotting, restoring into a fresh machine, and resuming
// over freshly opened (seeked) streams finishes with statistics
// bit-identical to the uninterrupted replay.
func TestForkReplayIdentity(t *testing.T) {
	apps := AllApps()
	if testing.Short() {
		apps = []string{"fft", "em3d"}
	}
	const scale = 0.02
	for _, app := range apps {
		data := recordCatalog(t, app, scale)
		for _, p := range []config.Protocol{config.CCNUMA, config.SCOMA, config.RNUMA} {
			sys := config.Base(p)
			res, err := Replay(bytes.NewReader(data), sys)
			if err != nil {
				t.Fatalf("%s/%v: full replay: %v", app, p, err)
			}
			full, hdr := res.Run, res.Header

			d, err := tracefile.NewReader(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("%s/%v: %v", app, p, err)
			}
			m, _, err := NewTraceMachine(d.Header(), sys)
			if err != nil {
				t.Fatalf("%s/%v: %v", app, p, err)
			}
			if err := m.Start(d.Streams()); err != nil {
				t.Fatalf("%s/%v: %v", app, p, err)
			}
			// Pause inside the run (two fifths of the way through), deep
			// enough that forks cross compressed-chunk boundaries.
			if _, err := m.RunUntilRefs(full.Refs * 2 / 5); err != nil {
				t.Fatalf("%s/%v: partial replay: %v", app, p, err)
			}
			snap, err := m.Snapshot()
			if err != nil {
				t.Fatalf("%s/%v: snapshot: %v", app, p, err)
			}
			// Fork from the decoded trace (a slice seek) and from the
			// streamed one (a chunk-skipping reader seek).
			for _, b := range []*decodeBudget{nil, {limit: 1}} {
				tr, err := decodeTrace(data, b)
				if err != nil {
					t.Fatalf("%s/%v: %v", app, p, err)
				}
				if !reflect.DeepEqual(tr.hdr, hdr) || (tr.w != nil) != (b == nil) {
					t.Fatalf("%s/%v: decodeTrace header %+v, decoded %v", app, p, tr.hdr, tr.w != nil)
				}
				forked, err := forkRun(tr, sys, snap, telemetry.Config{})
				if err != nil {
					t.Fatalf("%s/%v: fork: %v", app, p, err)
				}
				if !reflect.DeepEqual(full, forked) {
					t.Errorf("%s/%v (decoded %v): forked replay diverged from uninterrupted replay:\n full %+v\n fork %+v",
						app, p, tr.w != nil, full, forked)
				}
			}
		}
	}
}

// TestThresholdForkRunsIdentity: the trunk-and-fork threshold engine
// produces, for every threshold, exactly the run an independent full
// replay at that threshold produces — including thresholds low enough
// to relocate pages and thresholds the trace never reaches.
func TestThresholdForkRunsIdentity(t *testing.T) {
	const scale = 0.02
	data := recordCatalog(t, "em3d", scale)
	sys := config.Base(config.RNUMA)
	thresholds := []int{4, 16, 64, 1 << 20}

	res, err := Replay(bytes.NewReader(data), sys, WithThresholds(thresholds...))
	if err != nil {
		t.Fatal(err)
	}
	runs := res.ByThreshold
	if len(runs) != len(thresholds) {
		t.Fatalf("got %d runs for %d thresholds", len(runs), len(thresholds))
	}
	if res.Run != runs[1<<20] {
		t.Error("Result.Run is not the largest threshold's run")
	}
	var relocated bool
	for _, T := range thresholds {
		s := sys
		s.Threshold = T
		wantRes, err := Replay(bytes.NewReader(data), s)
		if err != nil {
			t.Fatalf("T=%d: %v", T, err)
		}
		want := wantRes.Run
		if !reflect.DeepEqual(want, runs[T]) {
			t.Errorf("T=%d: forked sweep run differs from independent replay:\n want %+v\n got  %+v", T, want, runs[T])
		}
		if want.Relocations > 0 {
			relocated = true
		}
	}
	// The low thresholds must actually exercise relocation, or the
	// identity above proves nothing about post-crossing divergence.
	if !relocated {
		t.Error("no threshold relocated a page; pick lower thresholds")
	}

	tr, err := decodeTrace(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := thresholdForkRuns(tr, sys, nil, telemetry.Config{}); err == nil {
		t.Error("empty threshold list accepted")
	}
	if _, err := Replay(bytes.NewReader(data), sys, WithThresholds(0, 16)); err == nil {
		t.Error("threshold 0 accepted")
	}
}

// TestSweepThresholdForkMatchesPerPoint: a multi-point threshold sweep
// (which forks from one trunk) reports the same points as single-point
// sweeps (which simulate each threshold independently). em3d's threshold
// line moves (T=16 and T=64 relocate pages, T=256 does not), so a fork
// handed another threshold's run cannot pass.
func TestSweepThresholdForkMatchesPerPoint(t *testing.T) {
	const scale = 0.02
	data := recordCatalog(t, "em3d", scale)
	values := []SweepValue{IntValue(16), IntValue(64), IntValue(256)}

	forkedH := New(scale)
	forked, _, err := forkedH.Sweep(data, AxisThreshold, values)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range values {
		h := New(scale)
		single, _, err := h.Sweep(data, AxisThreshold, values[i:i+1])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(single[0], forked[i]) {
			t.Errorf("T=%s: forked sweep point %+v differs from independent point %+v", v, forked[i], single[0])
		}
	}
	if forked[0].RNUMA == forked[1].RNUMA || forked[1].RNUMA == forked[2].RNUMA {
		t.Errorf("threshold line is flat, so it cannot tell forks apart: %+v", forked)
	}
}
