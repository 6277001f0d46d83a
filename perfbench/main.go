// Command perfbench is rnuma's benchmark: one command runs a named
// workload, measures it for a fixed time, checks that its outputs are
// correct, and prints one JSON line of metrics. Untraced runs print the
// end-to-end metrics; traced runs (--trace 1) print the per-layer
// metrics, the spans' self times and the tracing overhead. See
// README.md for the workloads, the metrics and what each should move.
//
// Usage (from the repository root, through perfbench/run.sh, which
// builds this command and the daemon first):
//
//	bash perfbench/run.sh --workload eval|em3d_grid|serve_mix --seed N --seconds S --trace 0|1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"syscall"
	"time"

	"rnuma/internal/stats"
)

// workers is the concurrency every workload uses: the simulation
// fan-out in process, and the daemon's per-job fan-out.
const workers = 2

// setupRepeats is how many times each run repeats the workload's input
// preparation; setup_s takes the median.
const setupRepeats = 3

// roundStats is one round of a workload's timed phase.
type roundStats struct {
	wall, cpu time.Duration
	rssKB     int64           // peak RSS of the simulating process
	jobs      []time.Duration // wall latency per job
	jobCPU    []time.Duration // CPU time per job
	refs      int64           // references of every result produced
	refsWall  time.Duration   // wall time those results took
	refsCPU   time.Duration   // CPU time those results took
	attempted int64
	failed    int64
	digest    string             // hash of the round's checked outputs
	layer     map[string]float64 // per-round layer figures
}

// workload is one named input set.
type workload interface {
	// prepare builds the workload's inputs; it runs setupRepeats times.
	prepare() error
	// round runs the timed unit once; tr is nil when untraced.
	round(tr *tracer) (*roundStats, error)
	// extras adds the traced-only layer measurements.
	extras(m map[string]float64, scratch string) error
	// expected is the pinned digest of a round's checked outputs.
	expected() string
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string
	serveBin string
	scratch  string
}

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "eval, em3d_grid, or serve_mix")
	fs.Int64Var(&o.seed, "seed", 1, "seed for the workload's request order")
	fs.Float64Var(&o.seconds, "seconds", 30, "length of the timed phase")
	fs.IntVar(&traceFlag, "trace", 0, "1 prints the per-layer metrics")
	fs.StringVar(&o.root, "root", ".", "repository checkout to read sources and fixtures from")
	fs.StringVar(&o.serveBin, "serve", "", "rnuma-serve binary (serve_mix)")
	fs.StringVar(&o.scratch, "scratch", "", "directory for temporary files (default <root>/.bench_build/tmp)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = traceFlag != 0
	if o.scratch == "" {
		o.scratch = filepath.Join(o.root, ".bench_build", "tmp")
	}
	res, err := run(o, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func newWorkload(o options) (workload, error) {
	switch o.workload {
	case "eval":
		return newEval(workers), nil
	case "em3d_grid":
		return newGrid(workers), nil
	case "serve_mix":
		if o.serveBin == "" {
			return nil, fmt.Errorf("serve_mix needs -serve <rnuma-serve binary>")
		}
		return newServeMix(o.seed, o.serveBin, o.root, o.scratch), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want eval, em3d_grid, or serve_mix)", o.workload)
}

func run(o options, log io.Writer) (*result, error) {
	w, err := newWorkload(o)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.scratch, 0o755); err != nil {
		return nil, err
	}
	correct := true
	fail := func(format string, args ...any) {
		correct = false
		fmt.Fprintf(log, "perfbench: check failed: "+format+"\n", args...)
	}

	// Set-up: the golden-fixture check, then the workload's inputs,
	// prepared setupRepeats times. Set-up is measured in CPU time (wall
	// time too, reported with the per-layer metrics).
	t, c := time.Now(), cpuTime()
	if _, err := checkGolden(o.root, workers); err != nil {
		fail("%v", err)
	}
	goldenWall, goldenCPU := time.Since(t), cpuTime()-c
	var prepWalls []float64
	prepCPU, err := medianOf(setupRepeats, func() (time.Duration, error) {
		t, c := time.Now(), cpuTime()
		err := w.prepare()
		prepWalls = append(prepWalls, float64(time.Since(t)))
		return cpuTime() - c, err
	})
	if err != nil {
		return nil, err
	}
	setupCPU := goldenCPU + prepCPU
	setupWall := goldenWall + time.Duration(median(prepWalls))

	// Timed phase: rounds until the next would overrun the budget by more
	// than half a round. Traced runs alternate untraced and traced rounds
	// (at least one of each) to measure the tracing overhead.
	budget := time.Duration(o.seconds * float64(time.Second))
	var rounds, traced []*roundStats
	self := map[string]float64{} // span self seconds over the traced rounds
	start := time.Now()
	for i := 0; ; i++ {
		var tr *tracer
		if o.trace && i%2 == 1 {
			tr = &tracer{}
		}
		// Every round starts from the same heap: collected, with the freed
		// pages handed back, so a round's peak RSS is its own.
		debug.FreeOSMemory()
		rs, err := w.round(tr)
		if err != nil {
			return nil, err
		}
		kind := "untraced"
		if tr != nil {
			kind = "traced"
			traced = append(traced, rs)
			for name, s := range selfByName(tr.spans) {
				self[name] += s
			}
		} else {
			rounds = append(rounds, rs)
		}
		fmt.Fprintf(log, "perfbench: round %d (%s): wall %.3fs cpu %.3fs, %d jobs\n",
			i, kind, rs.wall.Seconds(), rs.cpu.Seconds(), len(rs.jobs))
		el := time.Since(start)
		if o.trace && len(traced) == 0 {
			continue
		}
		if el+rs.wall/2 > budget {
			break
		}
	}
	all := append(append([]*roundStats(nil), rounds...), traced...)
	for i, rs := range all {
		if rs.digest != all[0].digest {
			fail("round %d output digest %s differs from round 0's %s", i, rs.digest, all[0].digest)
		}
	}
	if want := w.expected(); all[0].digest != want {
		fail("%s output digest %s, want %s", o.workload, all[0].digest, want)
	}
	var attempted, failed int64
	for _, rs := range all {
		attempted += rs.attempted
		failed += rs.failed
	}
	if failed > 0 {
		fail("%d of %d jobs failed", failed, attempted)
	}

	res := &result{Attempted: attempted, Failed: failed}
	measured := map[string]float64{}
	summary := summarize(rounds, setupCPU, setupWall, log)
	if !o.trace {
		for _, d := range endToEnd {
			measured[d.name] = summary[d.name]
		}
		res.Metrics, err = emit(endToEnd, measured)
	} else {
		for _, name := range wallMetrics {
			measured[name] = summary[name]
		}
		if err := w.extras(measured, o.scratch); err != nil {
			return nil, err
		}
		layerAverages(measured, traced)
		for name, s := range self {
			measured["span."+name+".self_s"] = s / float64(len(traced))
		}
		measured["trace.overhead_s"] = medianWall(traced) - medianWall(rounds)
		measured["failed_frac"] = failedFrac(failed, attempted)
		loc, lerr := countLines(o.root)
		if lerr != nil {
			return nil, lerr
		}
		for k, v := range loc {
			measured[k] = v
		}
		res.Metrics, err = emit(perLayer, measured)
	}
	if err != nil {
		return nil, err
	}
	res.Correct = correct
	return res, nil
}

// summarize reduces the untraced rounds to the end-to-end metrics, in
// CPU time, and to their wall-clock counterparts (wallMetrics).
func summarize(rounds []*roundStats, setupCPU, setupWall time.Duration, log io.Writer) map[string]float64 {
	var walls, cpus, lat, latCPU []float64
	var wall, refsWall, refsCPU time.Duration
	var refs, jobs, rss int64
	for _, rs := range rounds {
		walls = append(walls, rs.wall.Seconds())
		cpus = append(cpus, rs.cpu.Seconds())
		lat = append(lat, ms(rs.jobs)...)
		latCPU = append(latCPU, ms(rs.jobCPU)...)
		wall += rs.wall
		refsWall += rs.refsWall
		refsCPU += rs.refsCPU
		refs += rs.refs
		jobs += int64(len(rs.jobs))
		if rs.rssKB > rss {
			rss = rs.rssKB
		}
	}
	if n := tailSamples(lat, 90); n < 10 {
		fmt.Fprintf(log, "perfbench: job p90 rests on %d samples beyond it (%d jobs); run longer for ten\n", n, len(lat))
	}
	return map[string]float64{
		"setup_s":        setupCPU.Seconds(),
		"cpu_s":          median(cpus),
		"max_rss_mb":     float64(rss) / 1024,
		"refs_per_cpu_s": float64(refs) / refsCPU.Seconds(),
		"job_cpu_p50_ms": percentile(latCPU, 50),
		"job_cpu_p90_ms": percentile(latCPU, 90),

		"setup_wall_s": setupWall.Seconds(),
		"wall_s":       median(walls),
		"refs_per_s":   float64(refs) / refsWall.Seconds(),
		"jobs_per_s":   float64(jobs) / wall.Seconds(),
		"job_p50_ms":   percentile(lat, 50),
		"job_p90_ms":   percentile(lat, 90),
	}
}

// layerAverages averages the rounds' per-layer figures.
func layerAverages(m map[string]float64, rounds []*roundStats) {
	sums := map[string]float64{}
	for _, rs := range rounds {
		for k, v := range rs.layer {
			sums[k] += v
		}
	}
	keys := make([]string, 0, len(sums))
	for k := range sums {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m[k] = sums[k] / float64(len(rounds))
	}
}

func medianWall(rounds []*roundStats) float64 {
	var ws []float64
	for _, rs := range rounds {
		ws = append(ws, rs.wall.Seconds())
	}
	return median(ws)
}

// cpuTime is this process's user+system CPU time so far.
func cpuTime() time.Duration { return cpuClock(clockProcessCPUTime) }

// selfMaxRSS is this process's peak resident set, in KiB.
func selfMaxRSS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss
}

// addSimCounters adds the modelled machine's figures over a workload's
// R-NUMA base runs. They are simulated, not host, quantities and repeat
// exactly; only a model change may move them. The wait shares divide
// each resource's total queueing cycles by the machine's aggregate CPU
// cycles (execution time x CPUs).
func addSimCounters(m map[string]float64, runs []*stats.Run) {
	var exec, refs, l1, remote, refetch, reloc, repl, bus, ni, rad, cpuCycles int64
	for _, r := range runs {
		exec += r.ExecCycles
		refs += r.Refs
		l1 += r.L1Hits
		remote += r.RemoteFetches
		refetch += r.Refetches
		reloc += r.Relocations
		repl += r.Replacements
		bus += r.BusWaitCycles
		ni += r.NIWaitCycles
		rad += r.RADWaitCycles
		cpuCycles += r.ExecCycles * baseCPUs
	}
	m["sim.exec_cycles"] = float64(exec)
	m["sim.l1_hit_ratio"] = stats.Ratio(l1, refs)
	m["sim.remote_per_ref"] = stats.Ratio(remote, refs)
	m["sim.refetches"] = float64(refetch)
	m["sim.relocations"] = float64(reloc)
	m["sim.replacements"] = float64(repl)
	m["sim.bus_wait_share"] = stats.Ratio(bus, cpuCycles)
	m["sim.ni_wait_share"] = stats.Ratio(ni, cpuCycles)
	m["sim.rad_wait_share"] = stats.Ratio(rad, cpuCycles)
}

// baseCPUs is the base machine's processor count (8 nodes x 4 CPUs).
const baseCPUs = 32
