package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metricDef names one metric the benchmark can print, with its unit. The
// two tables below are the benchmark's whole vocabulary: BENCHMARK.json at
// the repository root lists exactly these names and units (a test pins
// the correspondence), and emit refuses any name missing from them.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run: what a user of the
// simulator pays. Every workload prints every one of them, so each is
// defined in workload-neutral terms (see README.md for the per-workload
// reading of "round" and "job"). Times are CPU time: on a shared virtual
// machine the hypervisor steals a varying share of the vCPUs, which
// inflates wall time from one run to the next while the CPU time the
// work takes stays put. The wall-clock counterparts are per-layer
// metrics (wallMetrics).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_s", "s"},
	{"max_rss_mb", "MB"},
	{"refs_per_cpu_s", "1/s"},
	{"job_cpu_p50_ms", "ms"},
	{"job_cpu_p90_ms", "ms"},
}

// wallMetrics are the end-to-end figures in wall-clock time, printed with
// the per-layer metrics because their run-to-run spread follows the host's
// load rather than the program.
var wallMetrics = []string{
	"setup_wall_s", "wall_s", "refs_per_s", "jobs_per_s", "job_p50_ms", "job_p90_ms",
}

// modules are the source modules whose non-test Go lines are reported
// as <module>.loc; "rnuma" is the root package. A module missing from
// the tree reports 0, and lines of a module not listed here still count
// toward total.loc.
var modules = []string{
	"addr", "blockcache", "cache", "config", "core", "dense", "directory",
	"event", "harness", "machine", "model", "node", "osmodel", "pagecache",
	"profiling", "rad", "report", "serve", "spec", "stats", "telemetry",
	"trace", "tracefile", "traffic", "workloads", "cmd", "examples", "rnuma",
}

// spanNames are the layer boundaries the benchmark wraps in spans; each
// reports its self time per round as span.<name>.self_s.
var spanNames = []string{
	"run.round",
	"harness.prefetch", "harness.simulate", "harness.assembly", "harness.sweep_grid",
	"report.render",
	"serve.daemon_start", "serve.upload", "serve.job", "serve.submit", "serve.wait",
	"serve.report", "serve.daemon_stop",
}

// perLayer are the metrics of a traced run.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{"setup_wall_s", "s"},
		{"wall_s", "s"},
		{"refs_per_s", "1/s"},
		{"jobs_per_s", "1/s"},
		{"job_p50_ms", "ms"},
		{"job_p90_ms", "ms"},
		{"workloads.build_s", "s"},
		{"tracefile.decode_refs_per_s", "1/s"},
		{"tracefile.transform_s", "s"},
		{"tracefile.hash_s", "s"},
		{"tracefile.encode_s", "s"},
		{"tracefile.bytes_per_ref", "B"},
		{"machine.refs_per_s.ccnuma", "1/s"},
		{"machine.refs_per_s.scoma", "1/s"},
		{"machine.refs_per_s.rnuma", "1/s"},
		{"machine.refs_per_s.ideal", "1/s"},
		{"machine.allocs_per_ref", "count"},
		{"cache.ns_per_access", "ns"},
		{"cache.hit_ratio", "ratio"},
		{"blockcache.ns_per_access", "ns"},
		{"blockcache.hit_ratio", "ratio"},
		{"directory.ns_per_fetch", "ns"},
		{"directory.allocs_per_fetch", "count"},
		{"pagecache.ns_per_op", "ns"},
		{"pagecache.replacements", "count"},
		{"harness.sims", "count"},
		{"harness.prefetch_s", "s"},
		{"harness.assembly_s", "s"},
		{"harness.fork_sweep_ratio", "ratio"},
		{"harness.store_ns_per_op", "ns"},
		{"harness.disk_commit_ms", "ms"},
		{"harness.disk_load_ms", "ms"},
		{"telemetry.overhead_ratio", "ratio"},
		{"report.render_ms", "ms"},
		{"serve.submit_ms", "ms"},
		{"serve.queue_ms", "ms"},
		{"serve.exec_ms", "ms"},
		{"serve.report_ms", "ms"},
		{"serve.store_hits", "count"},
		{"serve.disk_hits", "count"},
		{"serve.sims", "count"},
		{"serve.jobs", "count"},
		{"serve.warm_jobs", "count"},
		{"serve.cold_job_p50_ms", "ms"},
		{"serve.warm_job_p50_ms", "ms"},
		{"serve.warm_job_p90_ms", "ms"},
		{"serve.restart_job_p50_ms", "ms"},
		{"sim.exec_cycles", "cycles"},
		{"sim.l1_hit_ratio", "ratio"},
		{"sim.remote_per_ref", "ratio"},
		{"sim.refetches", "count"},
		{"sim.relocations", "count"},
		{"sim.replacements", "count"},
		{"sim.bus_wait_share", "ratio"},
		{"sim.ni_wait_share", "ratio"},
		{"sim.rad_wait_share", "ratio"},
		{"failed_frac", "ratio"},
		{"trace.overhead_s", "s"},
	}
	for _, s := range spanNames {
		defs = append(defs, metricDef{"span." + s + ".self_s", "s"})
	}
	for _, m := range modules {
		defs = append(defs, metricDef{m + ".loc", "lines"})
	}
	return append(defs, metricDef{"total.loc", "lines"})
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// emit builds the printed metric set from the measured values: every
// metric of the selected table appears (per-layer metrics a workload does
// not exercise read 0), and a measured name outside the table is an
// error, so the printed vocabulary cannot drift from BENCHMARK.json.
func emit(defs []metricDef, measured map[string]float64) (map[string]metricValue, error) {
	known := make(map[string]string, len(defs))
	for _, d := range defs {
		known[d.name] = d.unit
	}
	for name := range measured {
		if _, ok := known[name]; !ok {
			return nil, fmt.Errorf("perfbench: metric %q is not declared", name)
		}
	}
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := measured[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("perfbench: metric %s is %v", d.name, v)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, nil
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks (numpy's default method). It
// returns 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median is percentile 50.
func median(xs []float64) float64 { return percentile(xs, 50) }

// tailSamples reports how many samples lie strictly beyond the p-th
// percentile: a reported tail percentile needs at least ten.
func tailSamples(xs []float64, p float64) int {
	cut := percentile(xs, p)
	n := 0
	for _, x := range xs {
		if x > cut {
			n++
		}
	}
	return n
}

// failedFrac is failed over attempted; a run that attempted nothing has
// failed entirely.
func failedFrac(failed, attempted int64) float64 {
	if attempted <= 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}

// ms converts durations to milliseconds for latency samples.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// medianOf runs f n times and returns the median duration — the shape
// of every layer measurement, which times a repeatable call into one
// package's public API.
func medianOf(n int, f func() (time.Duration, error)) (time.Duration, error) {
	ds := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		d, err := f()
		if err != nil {
			return 0, err
		}
		ds = append(ds, float64(d))
	}
	return time.Duration(median(ds)), nil
}
