package serve

import (
	"bytes"
	"fmt"
	"io"

	"rnuma/internal/config"
	"rnuma/internal/harness"
	"rnuma/internal/report"
	"rnuma/internal/stats"
)

// This file executes jobs. Execute is the one code path that runs and
// renders replay, sweep, grid, diffstats and figure jobs: the daemon
// calls it for every submission, and the rnuma-experiments and
// rnuma-trace CLIs call it for their runs of the same kinds, so a served
// report and the offline output agree byte for byte by construction.
//
// Every served job gets a fresh Harness wired to the server's shared
// store: the harness carries the job's own Progress/Log writers and
// Simulations counter, while the store makes results — and in-flight
// singleflight claims — common property of all jobs.

// Job is a resolved request: its artifacts loaded, its systems built and
// its axis values parsed. The daemon resolves each JobRequest once at
// submission; the CLIs build Jobs from their flags, which can express
// systems (-bc, -pc, -soft) that a JobRequest cannot.
type Job struct {
	// Type is "replay", "sweep", "grid", "diffstats", or "experiments".
	Type string
	// Artifact is the input of replay, sweep and grid jobs and the first
	// side of a diffstats job; ArtifactB is diffstats' second side. Sweep,
	// grid and diffstats inputs must be traces.
	Artifact, ArtifactB *Artifact
	// System is the simulated design of replay and diffstats jobs, SystemB
	// diffstats' second one. A trace replays on its recorded shape; spec
	// and traffic inputs are built for System's shape.
	System, SystemB config.System
	// Normalize also runs the same-shape ideal machine and reports
	// execution time relative to it (replay only).
	Normalize bool
	// Axis and Values define a sweep, or a grid's X axis (its transform
	// applies first); AxisB and ValuesB are a grid's Y axis. KneeBound
	// overrides the grid knee detector's bound when > 0.
	Axis, AxisB     harness.Axis
	Values, ValuesB []harness.SweepValue
	KneeBound       float64
	// Figures names an experiments job's figures in render order ("5",
	// "6", "7", "8", "9", "table4"); Apps lists its applications.
	Figures, Apps []string
}

// Execute runs one resolved job on h, renders its text report to w, and
// returns the report's JSON document. A replay on a probed harness
// (h.Telemetry enabled) also renders the run's timeline.
func Execute(h *harness.Harness, job Job, w io.Writer) (doc any, err error) {
	switch job.Type {
	case "replay":
		return runReplay(h, w, job)
	case "sweep":
		pts, name, err := h.Sweep(job.Artifact.data, job.Axis, job.Values)
		if err != nil {
			return nil, err
		}
		report.Sensitivity(w, name, job.Axis, pts)
		return report.NewSensitivityDoc(name, job.Axis, pts), nil
	case "grid":
		g, err := h.SweepGrid(job.Artifact.data, job.Axis, job.Values, job.AxisB, job.ValuesB)
		if err != nil {
			return nil, err
		}
		report.Grid(w, g, job.KneeBound)
		return report.NewGridDoc(g, job.KneeBound), nil
	case "diffstats":
		return runDiffstats(h, w, job)
	case "experiments":
		return runExperiments(h, w, job)
	}
	return nil, fmt.Errorf("serve: unknown job type %q", job.Type)
}

// execute runs one served job to completion, returning the rendered text
// report, the JSON document, and how many simulations the job executed
// itself (0 for a fully warm resubmission).
func (s *Server) execute(js *jobState) (text string, doc any, sims int64, err error) {
	h := harness.New(s.opts.Scale)
	h.Seed = s.opts.Seed
	h.Workers = s.opts.Workers
	h.Store = s.store
	h.Progress = js.progress
	h.Log = js.progress

	var buf bytes.Buffer
	doc, err = Execute(h, js.job, &buf)
	return buf.String(), doc, h.Simulations(), err
}

// normalizedLine appends the ideal-baseline normalization line.
func normalizedLine(h *harness.Harness, w io.Writer, app string, sys config.System, run *stats.Run) (*stats.Run, error) {
	if sys.BlockCacheBytes == config.InfiniteBlockCache {
		return nil, nil
	}
	ideal := config.Ideal()
	ideal.Nodes, ideal.CPUsPerNode, ideal.Geometry = sys.Nodes, sys.CPUsPerNode, sys.Geometry
	base, err := h.Run(app, ideal)
	if err != nil {
		return nil, err
	}
	if base.ExecCycles > 0 {
		fmt.Fprintf(w, "  normalized exec time:  %.3f (vs infinite block cache)\n", run.Normalized(base))
	}
	return base, nil
}

// runReplay renders one run: the input header, the counter summary, the
// per-client table (traffic inputs), the timeline (probed harnesses),
// and the normalized line.
func runReplay(h *harness.Harness, w io.Writer, job Job) (any, error) {
	a := job.Artifact
	src, sys, err := a.load(h, job.System)
	if err != nil {
		return nil, err
	}
	app, title := src.Name(), src.Name()
	switch a.Kind {
	case harness.KindTrace:
		title = a.label
		fmt.Fprintf(w, "trace: %s (workload %s, %d nodes x %d CPUs)\n", a.label, a.Name, sys.Nodes, sys.CPUsPerNode)
	case harness.KindSpec:
		fmt.Fprintf(w, "spec: %s (%d nodes x %d CPUs)\n", app, sys.Nodes, sys.CPUsPerNode)
	case harness.KindTraffic:
		fmt.Fprintf(w, "traffic: %s (%d clients, %d nodes x %d CPUs)\n", app, a.in.Clients, sys.Nodes, sys.CPUsPerNode)
	}
	run, err := h.Run(app, sys)
	if err != nil {
		return nil, err
	}
	report.RunSummary(w, sys.Name, run)
	if len(run.Clients) > 0 {
		fmt.Fprintln(w)
		report.ClientTable(w, run)
	}
	if run.Timeline != nil {
		fmt.Fprintln(w)
		report.Timeline(w, title, run.Timeline)
	}
	var base *stats.Run
	if job.Normalize {
		if base, err = normalizedLine(h, w, app, sys, run); err != nil {
			return nil, err
		}
	}
	return report.NewRunDoc(app, sys.Name, run, base), nil
}

func runDiffstats(h *harness.Harness, w io.Writer, job Job) (any, error) {
	srcA, sysA, err := job.Artifact.load(h, job.System)
	if err != nil {
		return nil, err
	}
	srcB, sysB, err := job.ArtifactB.load(h, job.SystemB)
	if err != nil {
		return nil, err
	}
	appA, appB := srcA.Name(), srcB.Name()
	runA, err := h.Run(appA, sysA)
	if err != nil {
		return nil, err
	}
	runB, err := h.Run(appB, sysB)
	if err != nil {
		return nil, err
	}
	d := stats.Diff(runA, runB)
	report.DeltaTable(w, appA, appB, d, false)
	return report.NewDeltaDoc(appA, appB, d), nil
}

// figure adapts one harness figure and its text renderer to an
// experiments job's figure table.
func figure[T any](name string, build func(*harness.Harness, []string) (T, error), render func(io.Writer, T)) func(*harness.Harness, io.Writer, []string) (report.FigureDoc, error) {
	return func(h *harness.Harness, w io.Writer, apps []string) (report.FigureDoc, error) {
		rows, err := build(h, apps)
		if err != nil {
			return report.FigureDoc{}, err
		}
		render(w, rows)
		return report.FigureDoc{Figure: name, Rows: rows}, nil
	}
}

// figures maps an experiments job's figure names to their builders.
var figures = map[string]func(*harness.Harness, io.Writer, []string) (report.FigureDoc, error){
	"5":      figure("figure5", (*harness.Harness).Figure5, report.Figure5),
	"6":      figure("figure6", (*harness.Harness).Figure6, report.Figure6),
	"7":      figure("figure7", (*harness.Harness).Figure7, report.Figure7),
	"8":      figure("figure8", (*harness.Harness).Figure8, report.Figure8),
	"9":      figure("figure9", (*harness.Harness).Figure9, report.Figure9),
	"table4": figure("table4", (*harness.Harness).Table4, report.Table4),
}

// runExperiments renders each figure in order, a blank line between.
func runExperiments(h *harness.Harness, w io.Writer, job Job) (any, error) {
	docs := make([]report.FigureDoc, 0, len(job.Figures))
	for i, f := range job.Figures {
		build, ok := figures[f]
		if !ok {
			return nil, fmt.Errorf("serve: unknown figure %q (want 5, 6, 7, 8, 9, or table4)", f)
		}
		if i > 0 {
			fmt.Fprintln(w)
		}
		doc, err := build(h, w, job.Apps)
		if err != nil {
			return nil, err
		}
		docs = append(docs, doc)
	}
	return docs, nil
}
