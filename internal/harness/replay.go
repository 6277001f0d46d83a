package harness

import (
	"fmt"
	"io"

	"rnuma/internal/config"
	"rnuma/internal/machine"
	"rnuma/internal/stats"
	"rnuma/internal/telemetry"
	"rnuma/internal/tracefile"
)

// This file is the one-shot execution surface: Replay runs a recorded
// trace outside the memoizing store, since its callers replay each input
// once and have nothing to memoize. Its options attach a telemetry probe
// (WithTelemetry) or fork the replay across relocation thresholds
// (WithThresholds); NewTraceMachine builds the machine of a trace's
// recorded shape for Replay, the snapshot/resume CLI and the fork engine.

// RunOption configures a one-shot Replay.
type RunOption func(*runOptions)

type runOptions struct {
	tcfg       telemetry.Config
	thresholds []int
}

func buildRunOptions(opts []RunOption) runOptions {
	var o runOptions
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// WithTelemetry attaches a sampling probe to the run: the resulting
// Run(s) carry a telemetry.Timeline alongside their counters. A probe
// never changes a run's counters.
func WithTelemetry(cfg telemetry.Config) RunOption {
	return func(o *runOptions) { o.tcfg = cfg }
}

// WithThresholds replays the trace at every listed relocation
// threshold through the trunk-and-fork engine (fork.go): the shared
// prefix is paid once, and Result.ByThreshold maps each threshold to a
// run bit-identical to an independent full replay at that threshold.
// Replay then reads its whole input into memory and decodes it once;
// the trunk and every fork replay fresh cursors over that decode.
func WithThresholds(thresholds ...int) RunOption {
	return func(o *runOptions) { o.thresholds = append(o.thresholds, thresholds...) }
}

// Result is one one-shot execution's output.
type Result struct {
	// Run is the completed run. Under WithThresholds it is the run at
	// the largest requested threshold (the trunk's own point).
	Run *stats.Run
	// Header is the replayed trace's recorded machine shape.
	Header tracefile.Header
	// ByThreshold maps each requested threshold to its run; nil unless
	// WithThresholds was given.
	ByThreshold map[int]*stats.Run
}

// Replay runs one recorded trace through a machine of its recorded
// shape: the protocol, cache sizes, threshold, and costs come from sys,
// while the node/CPU counts, geometry, segment size, and page placement
// come from the trace header. This is the one-shot path behind
// rnuma-trace diffstats and resume and the timeline experiment; it
// bypasses the harness store (no Harness receiver) because the callers
// replay each input exactly once.
func Replay(r io.Reader, sys config.System, opts ...RunOption) (*Result, error) {
	o := buildRunOptions(opts)
	if len(o.thresholds) > 0 {
		data, err := io.ReadAll(r)
		if err != nil {
			return nil, fmt.Errorf("harness: %w", err)
		}
		return replayThresholds(data, sys, o)
	}
	d, err := tracefile.NewReader(r)
	if err != nil {
		return nil, err
	}
	hdr := d.Header()
	m, _, err := NewTraceMachine(hdr, sys, machine.WithTelemetry(o.tcfg))
	if err != nil {
		return nil, err
	}
	run, err := m.Run(d.Streams())
	if err != nil {
		return nil, err
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return &Result{Run: run, Header: hdr}, nil
}

// replayThresholds is the WithThresholds arm of Replay: the
// trunk-and-fork engine over one decode of the input, which the trunk
// and every fork replay (an input past the decode cap streams instead).
func replayThresholds(data []byte, sys config.System, o runOptions) (*Result, error) {
	tr, err := decodeTrace(data, nil)
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	runs, hdr, err := thresholdForkRuns(tr, sys, o.thresholds, o.tcfg)
	if err != nil {
		return nil, err
	}
	res := &Result{Header: hdr, ByThreshold: runs}
	max := 0
	for t := range runs {
		if t > max {
			max = t
		}
	}
	res.Run = runs[max]
	return res, nil
}

// NewTraceMachine builds a machine for a recorded trace: the protocol,
// cache sizes, threshold, and costs come from sys, while the node/CPU
// counts, geometry, segment size, and page placement (under
// sys.FirstTouch, as for a harness job) come from the trace header.
// Returns the merged configuration alongside the machine (Replay, the
// snapshot/resume CLI, and fork sweeps all share this construction,
// which is what makes their machines state-compatible).
func NewTraceMachine(h tracefile.Header, sys config.System, opts ...machine.Option) (*machine.Machine, config.System, error) {
	sys, err := traceSystem(sys, h)
	if err != nil {
		return nil, sys, err
	}
	if err := sys.Validate(); err != nil {
		return nil, sys, err
	}
	all := append([]machine.Option{machine.WithPages(h.SharedPages)}, opts...)
	if sys.FirstTouch {
		all = append(all, machine.WithHomes(h.HomeFunc()))
	}
	m, err := machine.New(sys, all...)
	return m, sys, err
}

// traceSystem sizes sys to a recorded trace's machine: the node and CPU
// counts and the geometry come from the header. No machine replays a
// trace whose nodes do not divide its CPUs, so that is an error.
func traceSystem(sys config.System, hdr tracefile.Header) (config.System, error) {
	if hdr.Nodes < 1 || hdr.CPUs%hdr.Nodes != 0 {
		return sys, fmt.Errorf("harness: trace %s has %d CPUs on %d nodes (not evenly divided)", hdr.Name, hdr.CPUs, hdr.Nodes)
	}
	sys.Nodes, sys.CPUsPerNode, sys.Geometry = hdr.Nodes, hdr.CPUs/hdr.Nodes, hdr.Geometry
	return sys, nil
}
