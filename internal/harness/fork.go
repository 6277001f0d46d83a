package harness

import (
	"fmt"
	"sort"

	"rnuma/internal/config"
	"rnuma/internal/machine"
	"rnuma/internal/stats"
	"rnuma/internal/telemetry"
	"rnuma/internal/tracefile"
	"rnuma/internal/workloads"
)

// This file implements snapshot/fork replay for threshold sweeps. A
// threshold sweep replays the *same* trace under R-NUMA configurations
// that differ only in the relocation threshold T, and the per-(node,
// page) counters evolve identically under every threshold until the
// hottest counter first reaches the smallest one: the runs share a
// common prefix. Instead of replaying that prefix once per point, a
// single trunk machine at the largest threshold replays it once,
// pausing at each smaller threshold's watermark (counter high-water
// mark T-1, i.e. just before any counter could cross T) to take a
// snapshot; each point then forks from its snapshot and replays only
// its own suffix.
//
// The trunk legitimately stands in for every smaller threshold because
// at the T-1 watermark no counter has reached T yet, so neither the
// trunk (threshold Tmax > T-1) nor a threshold-T machine has relocated
// a page: their states are bit-identical up to the pause.
//
// The trunk and every fork replay one decode of the trace (a
// replayTrace, source.go): the trunk reads fresh cursors from record 0,
// and each fork seeks fresh cursors to its snapshot's consumed
// positions, one slice index per CPU, so no fork decodes the prefix
// again. A trace past its harness's decode cap streams instead, and each
// fork's reader skips whole seeded chunks undecoded and decodes the rest
// of the prefix.

// thresholdForkRuns replays one recorded trace under R-NUMA at every
// requested relocation threshold, paying for the shared prefix once.
// sys supplies everything but the threshold (protocol, cache sizes,
// costs); the machine shape and geometry come from the trace header,
// exactly as Replay resolves them. The result maps each threshold to
// its completed run and is bit-identical to len(thresholds) independent
// full replays (TestThresholdForkRunsIdentity pins this). It is the
// WithThresholds arm of Replay — the public surface — and the engine
// behind threshold-axis sweeps.
//
// When the probe config is enabled, the trunk and every fork carry it,
// so each point's Run has an interval series and event log
// bit-identical to a full probed replay. Fork points generally fall
// mid-window (the trunk pauses at a counter watermark, not a reference
// count — running it further to reach a window boundary would be
// unsound, since a counter could cross the fork's threshold in
// between). Exactness comes instead from the snapshot carrying the
// probe's cursor: cumulative counters at the last boundary and the
// partial traffic matrix, from which the restored fork closes its next
// window exactly as an uninterrupted replay would.
func thresholdForkRuns(t *replayTrace, sys config.System, thresholds []int, tcfg telemetry.Config) (map[int]*stats.Run, tracefile.Header, error) {
	hdr := t.hdr
	if len(thresholds) == 0 {
		return nil, hdr, fmt.Errorf("harness: threshold fork over no values")
	}
	ts := append([]int(nil), thresholds...)
	sort.Ints(ts)
	ts = ts[:uniqInts(ts)]
	if ts[0] < 1 {
		return nil, hdr, fmt.Errorf("harness: threshold %d must be positive", ts[0])
	}

	w, err := t.open()
	if err != nil {
		return nil, hdr, fmt.Errorf("harness: %w", err)
	}
	tmax := ts[len(ts)-1]
	sysMax := sys
	sysMax.Threshold = tmax
	trunk, _, err := NewTraceMachine(hdr, sysMax, machine.WithTelemetry(tcfg))
	if err != nil {
		return nil, hdr, err
	}
	if err := trunk.Start(w.Streams); err != nil {
		return nil, hdr, err
	}

	out := make(map[int]*stats.Run, len(ts))
	trunkDone := false
	for _, T := range ts[:len(ts)-1] {
		if !trunkDone {
			done, err := trunk.RunUntilCounter(uint32(T - 1))
			if err != nil {
				return nil, hdr, err
			}
			trunkDone = done
		}
		if trunkDone {
			// The trace completed without any counter reaching T-1, so no
			// run at threshold >= T ever relocates: every remaining point
			// (including the trunk's own) is the same run.
			break
		}
		snap, err := trunk.Snapshot()
		if err != nil {
			return nil, hdr, err
		}
		fsys := sys
		fsys.Threshold = T
		run, err := forkRun(t, fsys, snap, tcfg)
		if err != nil {
			return nil, hdr, fmt.Errorf("harness: fork at T=%d: %w", T, err)
		}
		out[T] = run
	}
	runMax, err := trunk.Finish()
	if err != nil {
		return nil, hdr, err
	}
	if err := checkStreams(w); err != nil {
		return nil, hdr, err
	}
	out[tmax] = runMax
	for _, T := range ts[:len(ts)-1] {
		if out[T] == nil {
			out[T] = runMax.Clone()
		}
	}
	return out, hdr, nil
}

// forkRun completes one sweep point from a trunk snapshot: a fresh
// machine at the point's own threshold restores the snapshot, seeks a
// fresh set of trace streams to the consumed positions, and replays the
// remaining suffix to completion. Over a decoded trace the seek moves a
// slice cursor; a streamed trace's reader skips whole seeded chunks
// without inflating them and decodes the rest of the prefix.
func forkRun(t *replayTrace, sys config.System, snap *machine.Snapshot, tcfg telemetry.Config) (*stats.Run, error) {
	m, _, err := NewTraceMachine(t.hdr, sys, machine.WithTelemetry(tcfg))
	if err != nil {
		return nil, err
	}
	if err := m.Restore(snap); err != nil {
		return nil, err
	}
	w, err := t.open()
	if err != nil {
		return nil, err
	}
	if err := m.ResumeWith(w.Streams); err != nil {
		return nil, err
	}
	run, err := m.Finish()
	if err != nil {
		return nil, err
	}
	if err := checkStreams(w); err != nil {
		return nil, err
	}
	return run, nil
}

// checkStreams surfaces a streamed trace's decode error after its run;
// decoded references have none.
func checkStreams(w *workloads.Workload) error {
	if w.Check == nil {
		return nil
	}
	return w.Check()
}

// uniqInts compacts a sorted slice in place and returns the unique
// length.
func uniqInts(ts []int) int {
	n := 0
	for i, v := range ts {
		if i == 0 || v != ts[n-1] {
			ts[n] = v
			n++
		}
	}
	return n
}

// forkThresholdPoints pre-computes a threshold sweep's R-NUMA points
// with thresholdForkRuns and donates them to the store under the
// very job keys the sweep assembly reads, so Prefetch and Run find them
// already done and only the threshold-independent systems (ideal,
// CC-NUMA, S-COMA — one replay each, shared across all points) still
// simulate. The trunk and every fork replay the encoding's one decode,
// which the point's other simulations share. Already-cached points are
// left alone; when every point is cached no trunk runs at all, and the
// trace is neither derived nor decoded.
func (h *Harness) forkThresholdPoints(enc *encoding, pts []sweepPoint) error {
	missing := false
	for _, p := range pts {
		if !h.cached(NewJob(p.app, p.rn)) {
			missing = true
			break
		}
	}
	if !missing {
		return nil
	}
	tr, err := enc.trace()
	if err != nil {
		return err
	}
	thresholds := make([]int, 0, len(pts))
	for _, p := range pts {
		thresholds = append(thresholds, p.rn.Threshold)
	}
	h.logf("forking  %-9s threshold sweep from one trunk at T=%d", pts[0].app, thresholds[len(thresholds)-1])
	runs, _, err := thresholdForkRuns(tr, pts[len(pts)-1].rn, thresholds, h.Telemetry)
	if err != nil {
		return err
	}
	for _, p := range pts {
		run := runs[p.rn.Threshold]
		if run == nil {
			return fmt.Errorf("harness: fork sweep produced no run for T=%d", p.rn.Threshold)
		}
		h.memoize(NewJob(p.app, p.rn), run)
		h.logf("  T=%-5d %s", p.rn.Threshold, run.Summary())
	}
	return nil
}

// cached reports whether a job's result is already in the store. An
// in-flight claim by another harness reports false (Get never blocks),
// so a concurrent identical sweep may redundantly recompute a trunk —
// wasted work at worst, never a wrong result, because memoize inserts
// only into unclaimed slots.
func (h *Harness) cached(j Job) bool {
	_, ok, _ := h.store().Get(h.KeyFor(j))
	return ok
}

// memoize donates a pre-computed result to the store, so later
// Run/Prefetch calls for the job read it instead of simulating. An
// existing slot (completed or in flight) wins: the fork engine never
// clobbers a result another path produced.
func (h *Harness) memoize(j Job, run *stats.Run) {
	h.store().Add(h.KeyFor(j), run)
}
