// Command rnuma-experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	rnuma-experiments [-exp all|fig5|table4|fig6|fig7|fig8|fig9|model|lu|sweep|grid|timeline|traffic]
//	                  [-apps barnes,lu,...] [-specs a.json,b.json]
//	                  [-traces x.trace,...] [-scale 1.0] [-seed 0]
//	                  [-parallel N] [-v] [-progress] [-window N]
//	                  [-sweep-trace x.trace] [-sweep-app em3d]
//	                  [-sweep-axis nodes|dilate|block|page|threshold] [-sweep-values ...]
//	                  [-grid-axes block,threshold] [-grid-values-a ...] [-grid-values-b ...]
//	                  [-grid-bound 1.10] [-grid-json grid.json]
//
// Each experiment prints the corresponding rows/series of the paper's
// evaluation (Section 5); see EXPERIMENTS.md for paper-vs-measured values.
// The selected experiments' (application, system) grids are combined into
// one deduplicated plan and executed across -parallel workers (default
// GOMAXPROCS) before the figures are assembled, so shared configurations
// (the ideal baseline, the base protocols) simulate once. The figures,
// sweeps and grids run through rnuma-serve's job executor
// (serve.Execute), so the CLI prints exactly what the daemon serves.
//
// -specs and -traces load declarative workload files and recorded
// traces from their bytes as additional applications: their rows appear
// in every selected figure alongside the Table 3 catalog (memoized by
// content hash; a trace is decoded once). Recorded traces must match the
// experiments' 8x4 base machine shape.
//
// The sensitivity experiments replay one capture — from -sweep-trace, or
// recorded from -sweep-app at the base shape — transformed along one
// parameter axis and normalized to the same-configuration ideal machine
// at every point:
//
//   - -exp sweep sweeps one axis (-sweep-axis, default nodes) over
//     -sweep-values (default per axis): nodes retargets the machine
//     shape, dilate scales compute gaps — the "faster processors" study:
//     x1/2 halves every compute gap, doubling the relative cost of
//     memory — block and page retarget the geometry, and threshold forks
//     R-NUMA's relocation threshold;
//   - -exp grid sweeps two axes at once (-grid-axes "x,y", values from
//     -grid-values-a/-grid-values-b, defaulting per axis) and renders a
//     heat map of the per-cell R-NUMA/best ratio, the exact numbers, and
//     per-row/column knee conclusions (first point past -grid-bound,
//     default 1.10); -grid-json also writes the machine-readable
//     document. The first axis's transform applies before the second's;
//     when one axis is the threshold, each grid line along it is
//     pre-computed by the snapshot/fork engine at ~1 replay's cost;
//   - -exp timeline runs a probed threshold fork sweep (-sweep-values,
//     default 16,64) and renders each point's time-resolved telemetry:
//     interval series, relocation bursts, and traffic matrix.
//
// These experiments need a trace, so they run only when selected by
// name, never under -exp all.
//
// -exp traffic -traffic scenario.json compiles a multi-tenant traffic
// scenario (see internal/traffic) at the 8x4 base shape, replays the
// merged mix under every protocol plus the ideal baseline, and prints the
// normalized comparison followed by each protocol's per-client counter
// split — how the tenants share (and steal) the machine. Like the other
// file-driven experiments it runs only when selected by name.
//
// -window N attaches the telemetry sampling probe (window N references)
// to every simulation; -progress reports scheduler throughput to stderr
// while a parallel plan executes.
//
// Exit status: 0 on success, 1 on runtime errors (bad trace files,
// simulation failures), 2 on usage errors — unknown flags, axes, or
// unparseable -sweep-values/-grid-values-* entries (the offending token
// is named on stderr).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"

	"rnuma/internal/config"
	"rnuma/internal/harness"
	"rnuma/internal/model"
	"rnuma/internal/report"
	"rnuma/internal/serve"
	"rnuma/internal/stats"
	"rnuma/internal/telemetry"
	"rnuma/internal/tracefile"
	"rnuma/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// exitCode carries die/dieUsage's status through panic to run's recover,
// so the deeply nested experiment blocks keep their straight-line error
// handling while run stays testable (no os.Exit mid-flight).
type exitCode int

// run executes the CLI against injectable streams and returns the
// process exit code: 0 success, 1 runtime error, 2 usage error.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("rnuma-experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp         = fs.String("exp", "all", "experiment: all, fig5, table4, fig6, fig7, fig8, fig9, model, lu, sweep, grid, timeline, traffic")
		apps        = fs.String("apps", "", "comma-separated application subset (default: all ten)")
		specs       = fs.String("specs", "", "comma-separated workload spec files to add as applications")
		traces      = fs.String("traces", "", "comma-separated recorded trace files to add as applications")
		scale       = fs.Float64("scale", 1.0, "workload scale (iteration multiplier)")
		seed        = fs.Int64("seed", 0, "workload RNG seed (0 = built-in fixed seeds)")
		parallel    = fs.Int("parallel", 0, "concurrent simulations (0 = GOMAXPROCS, 1 = serial)")
		verbose     = fs.Bool("v", false, "log run progress")
		sweepTrace  = fs.String("sweep-trace", "", "recorded trace to sweep (default: record -sweep-app at the 8x4 base shape)")
		sweepApp    = fs.String("sweep-app", "em3d", "catalog application to record for the sweep when no -sweep-trace is given")
		sweepAxis   = fs.String("sweep-axis", "nodes", "-exp sweep axis: nodes, dilate, block, page, threshold")
		sweepVals   = fs.String("sweep-values", "", "comma-separated values for -sweep-axis (default per axis)")
		gridAxes    = fs.String("grid-axes", "block,threshold", "-exp grid axes \"x,y\"; the x transform applies first")
		gridValsA   = fs.String("grid-values-a", "", "comma-separated values for the first grid axis (default per axis)")
		gridValsB   = fs.String("grid-values-b", "", "comma-separated values for the second grid axis (default per axis)")
		gridBound   = fs.Float64("grid-bound", 0, "knee bound on R-NUMA/best for -exp grid (0 = default 1.10)")
		gridJSON    = fs.String("grid-json", "", "also write -exp grid's JSON document to this file")
		trafficSpec = fs.String("traffic", "", "traffic scenario file for -exp traffic")
		window      = fs.Int64("window", 0, "telemetry window in references (0 = off; -exp timeline defaults it)")
		progress    = fs.Bool("progress", false, "report scheduler progress (jobs done, refs/s) to stderr")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	defer func() {
		if r := recover(); r != nil {
			c, ok := r.(exitCode)
			if !ok {
				panic(r)
			}
			code = int(c)
		}
	}()
	// die reports a runtime error (exit 1); dieUsage a usage error —
	// unknown axes, unparseable value lists, malformed flag pairs —
	// (exit 2). Both are no-ops on nil.
	fail := func(err error, c exitCode) {
		if err != nil {
			fmt.Fprintf(stderr, "rnuma-experiments: %v\n", err)
			panic(c)
		}
	}
	die := func(err error) { fail(err, 1) }
	dieUsage := func(err error) { fail(err, 2) }

	list := harness.AllApps()
	if *apps != "" {
		list = strings.Split(*apps, ",")
	}
	h := harness.New(*scale)
	h.Seed = *seed
	h.Workers = *parallel
	if *verbose {
		h.Log = stderr
	}
	if *progress {
		h.Progress = stderr
	}
	// -window attaches the sampling probe to every simulation the harness
	// runs; figures are unaffected (they read counters, not timelines).
	h.Telemetry = telemetry.Config{Window: *window}

	// Spec and trace files join the application list: every selected
	// figure then carries their rows next to the catalog's. A registered
	// source shadows a same-named catalog generator, so a name already in
	// the list (via -apps) is not appended again — the row would be the
	// source replay twice, never the generator-vs-trace comparison.
	base := config.Base(config.RNUMA)
	for _, in := range []struct{ kind, paths string }{{harness.KindSpec, *specs}, {harness.KindTrace, *traces}} {
		for _, path := range splitList(in.paths) {
			data, err := os.ReadFile(path)
			die(err)
			src, err := h.Load(in.kind, data, "", "", base)
			if err != nil {
				die(fmt.Errorf("%s: %w", path, err))
			}
			if slices.Contains(list, src.Name()) {
				fmt.Fprintf(stderr, "note: %q rows replay the registered source (it shadows the catalog generator)\n", src.Name())
				continue
			}
			list = append(list, src.Name())
		}
	}
	sep := func() { fmt.Fprintln(stdout, "\n"+strings.Repeat("=", 80)+"\n") }

	want := func(name string) bool { return *exp == "all" || *exp == name }

	// Warm the memo cache for the whole evaluation in one deduplicated
	// concurrent fan-out; the per-figure assembly below then reads pure
	// cache hits. Single-figure invocations skip this: each figure's own
	// assembly prefetches exactly its grid.
	if *exp == "all" {
		h.Prefetch(h.PlanAll(list))
	}

	if want("model") {
		costs := config.BaseCosts()
		p := model.FromCosts(float64(costs.RemoteFetch),
			float64(costs.PageOpBase()+costs.PageOpPerBlock*32),
			float64(costs.PageOpBase()+costs.PageOpPerBlock*16), 64)
		report.Model(stdout, p)
		sep()
	}
	// The paper figures run through the daemon's executor: one
	// experiments job per figure, each followed by the separator.
	for _, f := range []struct{ exp, figure string }{
		{"fig5", "5"}, {"table4", "table4"}, {"fig6", "6"}, {"fig7", "7"}, {"fig8", "8"}, {"fig9", "9"},
	} {
		if want(f.exp) {
			_, err := serve.Execute(h, serve.Job{Type: "experiments", Figures: []string{f.figure}, Apps: list}, stdout)
			die(err)
			sep()
		}
	}
	if want("lu") {
		share, err := h.LuImbalance()
		die(err)
		fmt.Fprintf(stdout, "LU LOAD IMBALANCE (Section 5.5) — top-2 nodes' share of S-COMA page replacements: %.0f%%\n", share*100)
		fmt.Fprintln(stdout, "(the paper attributes lu's relocation-overhead sensitivity to two overloaded nodes)")
	}

	// The sensitivity experiments replay one capture transformed along
	// parameter axes. They need a trace (recorded here when none is
	// given), so they run only when asked for by name, not under "all".
	capture := func() (data []byte, name string) {
		if *sweepTrace != "" {
			b, err := os.ReadFile(*sweepTrace)
			die(err)
			return b, *sweepTrace
		}
		app, ok := workloads.ByName(*sweepApp)
		if !ok {
			dieUsage(fmt.Errorf("unknown -sweep-app %q", *sweepApp))
		}
		cfg := workloads.DefaultConfig()
		cfg.Scale, cfg.Seed = *scale, *seed
		var buf bytes.Buffer
		_, _, err := tracefile.WriteWorkload(&buf, app.Build(cfg), cfg)
		die(err)
		return buf.Bytes(), *sweepApp
	}
	// execute runs a sweep or grid job over the capture through the
	// daemon's executor and returns its JSON document.
	execute := func(job serve.Job) any {
		data, name := capture()
		a, err := serve.NewArtifact(harness.KindTrace, data, name, "")
		die(err)
		job.Artifact = a
		doc, err := serve.Execute(h, job, stdout)
		die(err)
		return doc
	}
	defaultValues := map[harness.Axis]string{
		harness.AxisNodes:     "4,8,16",
		harness.AxisDilate:    "1/2,1,2,4",
		harness.AxisBlockSize: "16,32,64,128",
		harness.AxisPageSize:  "2048,4096,8192",
		harness.AxisThreshold: "16,64,256,1024",
	}
	// parseValues resolves one axis's value list (per-axis default when
	// empty); unparseable entries are usage errors naming the token.
	parseValues := func(axis harness.Axis, csv string) []harness.SweepValue {
		if csv == "" {
			csv = defaultValues[axis]
		}
		values, err := harness.ParseSweepValues(axis, csv)
		dieUsage(err)
		return values
	}

	if *exp == "sweep" {
		axis, err := harness.ParseAxis(*sweepAxis)
		dieUsage(err)
		execute(serve.Job{Type: "sweep", Axis: axis, Values: parseValues(axis, *sweepVals)})
	}

	// -exp grid sweeps two axes at once and renders the heat map, exact
	// table, and knee conclusions; -grid-json additionally writes the
	// machine-readable document for downstream gating.
	if *exp == "grid" {
		names := splitList(*gridAxes)
		if len(names) != 2 {
			dieUsage(fmt.Errorf("-grid-axes wants exactly two axes \"x,y\", got %q", *gridAxes))
		}
		axisX, err := harness.ParseAxis(names[0])
		dieUsage(err)
		axisY, err := harness.ParseAxis(names[1])
		dieUsage(err)
		if axisX == axisY {
			dieUsage(fmt.Errorf("-grid-axes must name two different axes, got %q", *gridAxes))
		}
		doc := execute(serve.Job{Type: "grid", Axis: axisX, Values: parseValues(axisX, *gridValsA),
			AxisB: axisY, ValuesB: parseValues(axisY, *gridValsB), KneeBound: *gridBound})
		if *gridJSON != "" {
			b, err := json.MarshalIndent(doc, "", "  ")
			die(err)
			die(os.WriteFile(*gridJSON, append(b, '\n'), 0o644))
		}
	}

	// -exp traffic replays a compiled multi-tenant scenario under every
	// protocol (plus the ideal baseline for normalization) and breaks each
	// run out per tenant. The scenario bakes in the scale and seed at
	// compile time, exactly like a recorded trace.
	if *exp == "traffic" {
		if *trafficSpec == "" {
			dieUsage(fmt.Errorf("-exp traffic needs -traffic <scenario.json>"))
		}
		data, err := os.ReadFile(*trafficSpec)
		die(err)
		src, err := h.Load(harness.KindTraffic, data, "", filepath.Dir(*trafficSpec), base)
		die(err)
		w, err := src.Load(workloads.Config{Nodes: base.Nodes, CPUsPerNode: base.CPUsPerNode, Geometry: base.Geometry, Scale: *scale, Seed: *seed})
		die(err)
		attr := w.Attribution
		systems := []config.System{
			config.Base(config.CCNUMA), config.Base(config.SCOMA), config.Base(config.RNUMA),
		}
		h.Prefetch(harness.NewPlan().AddRuns([]string{src.Name()},
			append(append([]config.System{}, systems...), config.Ideal())...))
		ideal, err := h.Ideal(src.Name())
		die(err)
		fmt.Fprintf(stdout, "TRAFFIC — scenario %s: %d tenants (%s), %d refs, %d pages\n\n",
			w.Name, len(attr.Clients), strings.Join(attr.Clients, ", "), attr.Records(), w.SharedPages)
		fmt.Fprintf(stdout, "%-28s %10s %10s %10s %10s\n", "system", "norm-exec", "remote", "refetch", "reloc")
		fmt.Fprintln(stdout, strings.Repeat("-", 72))
		runs := make([]*stats.Run, len(systems))
		for i, sys := range systems {
			run, err := h.Run(src.Name(), sys)
			die(err)
			runs[i] = run
			norm := 0.0
			if ideal.ExecCycles > 0 {
				norm = run.Normalized(ideal)
			}
			fmt.Fprintf(stdout, "%-28s %10.3f %10d %10d %10d\n", sys.Name, norm, run.RemoteFetches, run.Refetches, run.Relocations)
		}
		for i, sys := range systems {
			fmt.Fprintf(stdout, "\n%s:\n", sys.Name)
			report.ClientTable(stdout, runs[i])
		}
		sep()
	}

	// -exp timeline renders the time-resolved telemetry story: one probed
	// fork sweep over the requested R-NUMA thresholds (-sweep-values,
	// default "16,64"), then each point's interval series, relocation
	// bursts, and traffic matrix — how the same trace's reactive behavior
	// shifts when the threshold moves. Needs a trace, so like the other
	// sensitivity experiments it never runs under -exp all.
	if *exp == "timeline" {
		csv := *sweepVals
		if csv == "" {
			csv = "16,64"
		}
		var thresholds []int
		for _, s := range splitList(csv) {
			T, err := strconv.Atoi(s)
			if err != nil || T < 1 {
				dieUsage(fmt.Errorf("bad -sweep-values threshold %q for -exp timeline", s))
			}
			thresholds = append(thresholds, T)
		}
		sort.Ints(thresholds)
		tcfg := h.Telemetry
		if !tcfg.Enabled() {
			tcfg = telemetry.Config{Window: telemetry.DefaultWindow}
		}
		data, name := capture()
		res, err := harness.Replay(bytes.NewReader(data), config.Base(config.RNUMA),
			harness.WithThresholds(thresholds...), harness.WithTelemetry(tcfg))
		die(err)
		for i, T := range thresholds {
			if i > 0 && T == thresholds[i-1] {
				continue
			}
			report.Timeline(stdout, fmt.Sprintf("%s, R-NUMA T=%d", name, T), res.ByThreshold[T].Timeline)
			sep()
		}
	}
	return 0
}

// splitList splits a comma-separated flag, dropping empty entries.
func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
