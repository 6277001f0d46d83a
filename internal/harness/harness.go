// Package harness drives the paper's experiments: it instantiates
// machines, executes workloads, and produces the rows of every table and
// figure in the evaluation (Section 5).
//
// The experiment grid is declared as a Plan of Jobs (one per (application,
// system) pair) and executed by a concurrent scheduler: runs are memoized
// in a singleflight cache, so figures that share configurations (e.g., the
// ideal baseline) reuse results and concurrent requests for the same
// configuration run it exactly once. Workers bounds the fan-out; figure
// assembly is serial and reads only the cache, so results are identical to
// a serial run regardless of schedule.
package harness

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"rnuma/internal/config"
	"rnuma/internal/machine"
	"rnuma/internal/stats"
	"rnuma/internal/telemetry"
	"rnuma/internal/workloads"
)

// Harness runs experiments at a given workload scale.
type Harness struct {
	// Scale multiplies workload iteration counts (1.0 = evaluation size).
	Scale float64
	// Seed perturbs the workload generators' RNGs (workloads.Config.Seed).
	// The default 0 keeps the built-in fixed seeds, so results — and any
	// traces recorded from them — are bit-reproducible run to run.
	// Recorded-trace sources ignore it (their references are baked in).
	Seed int64
	// Log, if non-nil, receives progress lines (serialized across workers).
	Log io.Writer
	// Workers bounds how many simulations run concurrently when a plan is
	// prefetched: 0 means GOMAXPROCS, 1 forces serial execution. Individual
	// Run calls are always synchronous; Workers only governs plan fan-out.
	Workers int
	// Telemetry, when enabled (Window > 0), attaches a sampling probe to
	// every machine the harness builds: each memoized Run then carries a
	// telemetry.Timeline alongside its counters. The memo cache stays
	// keyed on (app, system) alone because the configuration is
	// harness-wide and a probe never changes a run's counters.
	Telemetry telemetry.Config
	// Progress, if non-nil, receives periodic jobs-done/total + refs/sec
	// lines while Prefetch executes a plan (CLIs pass os.Stderr under
	// -progress).
	Progress io.Writer
	// Store memoizes simulation results (singleflight: exactly one run
	// per JobKey, even under concurrent requests). New installs a fresh
	// MemoryStore; replace it before first use to share results across
	// harnesses (the server gives every request its own Harness — own
	// Progress/Log — over one shared Store) or to persist them
	// (DiskStore).
	Store Store

	// srcMu guards the source registry only. It is deliberately separate
	// from the store's internal locking so registering artifacts never
	// contends with result lookups: a server can accept uploads while
	// long simulations are in flight.
	srcMu   sync.Mutex
	logMu   sync.Mutex        // serializes progress lines
	sources map[string]Source // loaded sources, by name
	decodes decodeBudget      // the in-memory traces this harness holds decoded

	sims atomic.Int64 // simulations this harness executed itself
}

// New builds a harness.
func New(scale float64) *Harness {
	return &Harness{Scale: scale, Store: NewMemoryStore()}
}

// store returns the harness's Store, installing a MemoryStore on first
// use for zero-valued harnesses built without New.
func (h *Harness) store() Store {
	h.srcMu.Lock()
	defer h.srcMu.Unlock()
	if h.Store == nil {
		h.Store = NewMemoryStore()
	}
	return h.Store
}

// Simulations reports how many simulations this harness has executed
// itself. Results served by the store — computed earlier, by another
// harness on the same store, or loaded from disk — are not counted,
// which is exactly what makes it the server's per-job "new work"
// accounting.
func (h *Harness) Simulations() int64 { return h.sims.Load() }

func (h *Harness) logf(format string, args ...any) {
	if h.Log == nil {
		return
	}
	h.logMu.Lock()
	fmt.Fprintf(h.Log, format+"\n", args...)
	h.logMu.Unlock()
}

// sysKey renders a whole system configuration but its Name. The machine
// shape, geometry, cache sizes and threshold — what figures and sweeps
// vary — come first in a fixed format; every other field adds a suffix
// only where it differs from config.Base's (the paper's costs add none,
// the Figure 9 SOFT costs "-soft"), so the key of every system built
// from Base by those first fields never moves.
func sysKey(s config.System) string {
	b := append(make([]byte, 0, 64), s.Protocol.String()...)
	num := func(tag string, v int64) {
		b = append(b, tag...)
		b = strconv.AppendInt(b, v, 10)
	}
	num("-g", int64(s.Geometry.BlockShift))
	num(".", int64(s.Geometry.PageShift))
	num("-n", int64(s.Nodes))
	num("-c", int64(s.CPUsPerNode))
	num("-bc", int64(s.BlockCacheBytes))
	num("-pc", int64(s.PageCacheBytes))
	num("-T", int64(s.Threshold))
	switch c := s.Costs; c {
	case config.BaseCosts():
	case config.SoftCosts():
		b = append(b, "-soft"...)
	default:
		b = append(b, "-costs"...)
		for _, v := range [...]int64{c.SRAMAccess, c.DRAMAccess, c.LocalFill, c.RemoteFetch,
			c.SoftTrap, c.TLBShootdown, c.PageOpFixed, c.PageOpPerBlock, c.ThreeHopExtra, c.InvalExtra,
			c.BusOccupancy, c.NIOccupancy, c.RADOccupancy, c.NetLatency, c.L1HitCycles} {
			num(".", v)
		}
	}
	base := config.Base(s.Protocol)
	if s.L1Bytes != base.L1Bytes {
		num("-l1", int64(s.L1Bytes))
	}
	if s.PageReplacement != base.PageReplacement {
		b = append(b, "-"+s.PageReplacement.String()...)
	}
	if s.FirstTouch != base.FirstTouch {
		b = append(b, "-rr"...) // round-robin homes
	}
	if s.NaiveCounting != base.NaiveCounting {
		b = append(b, "-naive"...)
	}
	return string(b)
}

// Run executes (with memoization) one application under one system.
func (h *Harness) Run(appName string, sys config.System) (*stats.Run, error) {
	return h.runJob(NewJob(appName, sys))
}

// runJob executes a job through the singleflight store: exactly one
// simulation per key ever runs, even under concurrent requests (from
// this harness or any other harness sharing the store).
func (h *Harness) runJob(j Job) (*stats.Run, error) {
	run, _, err := h.runShared(j, nil)
	return run, err
}

// runShared is runJob drawing catalog workloads from a Prefetch's shared
// builds (nil builds afresh). simulated reports whether this call ran
// the simulation rather than reading the store.
func (h *Harness) runShared(j Job, b *builds) (run *stats.Run, simulated bool, err error) {
	key := h.KeyFor(j)
	st := h.store()
	// A scenario's phase files may change after its load, so its compile
	// is checked against the key before the claim: a mismatch is not filed.
	if v, ok := h.source(j.App).(*variant); ok && v.sc != nil {
		if _, done, _ := st.Get(key); !done {
			if _, err := v.trace(); err != nil {
				return nil, false, err
			}
		}
	}
	run, owner, err := st.StartOrWait(key)
	if !owner {
		return run, false, err
	}
	// The claim MUST resolve: a panic in simulate would otherwise leave
	// every waiter on this key blocked forever. Commit the failure as the
	// result, then let the panic continue to the caller.
	committed := false
	defer func() {
		if committed {
			return
		}
		r := recover()
		st.Commit(key, nil, fmt.Errorf("harness: %s: simulation panicked: %v", key, r))
		if r != nil {
			panic(r)
		}
	}()
	run, err = h.simulate(j, b)
	h.sims.Add(1)
	st.Commit(key, run, err)
	committed = true
	return run, true, err
}

// workloadConfig sizes a job's workload: the system's machine shape plus
// the harness's scale and seed.
func (h *Harness) workloadConfig(sys config.System) workloads.Config {
	return workloads.Config{
		Nodes:       sys.Nodes,
		CPUsPerNode: sys.CPUsPerNode,
		Geometry:    sys.Geometry,
		Scale:       h.Scale,
		Seed:        h.Seed,
	}
}

// simulate builds the workload and machine for a job and runs it. Each
// call constructs a fresh Machine, so concurrent jobs share no mutable
// state; the workload build is deterministic (fixed seeds), so results do
// not depend on the schedule, nor on whether the references come from a
// build shared through b. Registered sources (loaded traces, specs and
// scenarios) take precedence over the built-in catalog.
func (h *Harness) simulate(j Job, b *builds) (*stats.Run, error) {
	cfg := h.workloadConfig(j.Sys)
	var w *workloads.Workload
	if src := h.source(j.App); src != nil {
		var err error
		if w, err = src.Load(cfg); err != nil {
			return nil, err
		}
	} else {
		app, ok := workloads.ByName(j.App)
		if !ok {
			return nil, fmt.Errorf("harness: unknown application %q", j.App)
		}
		w = b.workload(app, cfg)
	}
	opts := []machine.Option{machine.WithPages(w.SharedPages)}
	if j.Sys.FirstTouch {
		// The workload's homes are where first touch places each page;
		// without the directive the machine falls back to round-robin.
		opts = append(opts, machine.WithHomes(w.Homes))
	}
	if h.Telemetry.Enabled() {
		opts = append(opts, machine.WithTelemetry(h.Telemetry))
	}
	if w.Attribution != nil {
		opts = append(opts, machine.WithAttribution(w.Attribution))
	}
	m, err := machine.New(j.Sys, opts...)
	if err != nil {
		return nil, err
	}
	h.logf("running %-9s on %-40s", j.App, j.Sys.Name)
	run, err := m.Run(w.Streams)
	if err != nil {
		return nil, err
	}
	// Replayed traces cannot report decode errors through trace.Stream;
	// a failure here means the run saw truncated input.
	if err := checkStreams(w); err != nil {
		return nil, err
	}
	h.logf("  %s", run.Summary())
	return run, nil
}

// Ideal returns the app's run on the normalization baseline (CC-NUMA with
// an infinite block cache).
func (h *Harness) Ideal(appName string) (*stats.Run, error) {
	return h.Run(appName, config.Ideal())
}

// Normalized returns the app's execution time under sys relative to the
// ideal machine.
func (h *Harness) Normalized(appName string, sys config.System) (float64, error) {
	run, err := h.Run(appName, sys)
	if err != nil {
		return 0, err
	}
	base, err := h.Ideal(appName)
	if err != nil {
		return 0, err
	}
	return run.Normalized(base), nil
}

// ---------------------------------------------------------------------
// Figure 5: cumulative distribution of refetches over remote pages under
// CC-NUMA with a 32-KB block cache.

// Fig5Curve is one application's CDF.
type Fig5Curve struct {
	App    string
	Points []stats.CDFPoint
	// At10/At30 sample the curve at 10% and 30% of remote pages (the
	// paper's headline observations).
	At10, At30 float64
}

// Figure5 computes the refetch CDFs. Applications with no refetches (fft)
// return an empty curve, matching the paper's omission of fft.
func (h *Harness) Figure5(apps []string) ([]Fig5Curve, error) {
	h.Prefetch(h.Figure5Plan(apps))
	out := make([]Fig5Curve, 0, len(apps))
	for _, a := range apps {
		run, err := h.Run(a, config.Base(config.CCNUMA))
		if err != nil {
			return nil, err
		}
		pts := run.RefetchCDF(int(run.RemotePages))
		out = append(out, Fig5Curve{
			App:    a,
			Points: pts,
			At10:   stats.CDFAt(pts, 10),
			At30:   stats.CDFAt(pts, 30),
		})
	}
	return out, nil
}

// ---------------------------------------------------------------------
// Table 4: read-write page refetch fraction in CC-NUMA; R-NUMA refetches
// and replacements relative to CC-NUMA and S-COMA.

// Table4Row is one application's row.
type Table4Row struct {
	App string
	// RWPagePct: percent of CC-NUMA refetches due to pages with both read
	// and write sharing traffic.
	RWPagePct float64
	// RefetchPct: R-NUMA refetches as a percentage of CC-NUMA's.
	RefetchPct float64
	// ReplacementPct: R-NUMA page replacements as a percentage of
	// S-COMA's.
	ReplacementPct float64
}

// Table4 computes the characterization table.
func (h *Harness) Table4(apps []string) ([]Table4Row, error) {
	h.Prefetch(h.Table4Plan(apps))
	out := make([]Table4Row, 0, len(apps))
	for _, a := range apps {
		cc, err := h.Run(a, config.Base(config.CCNUMA))
		if err != nil {
			return nil, err
		}
		sc, err := h.Run(a, config.Base(config.SCOMA))
		if err != nil {
			return nil, err
		}
		rn, err := h.Run(a, config.Base(config.RNUMA))
		if err != nil {
			return nil, err
		}
		out = append(out, Table4Row{
			App:            a,
			RWPagePct:      100 * stats.Ratio(cc.RWRefetches, cc.Refetches),
			RefetchPct:     100 * stats.Ratio(rn.Refetches, cc.Refetches),
			ReplacementPct: 100 * stats.Ratio(rn.Replacements, sc.Replacements),
		})
	}
	return out, nil
}

// ---------------------------------------------------------------------
// Figure 6: normalized execution time under the base configurations.

// Fig6Row is one application's three bars.
type Fig6Row struct {
	App                       string
	CCNUMA, SCOMA, RNUMA      float64
	BestOfBase, RNUMAOverBest float64
}

// Figure6 computes the base-system comparison.
func (h *Harness) Figure6(apps []string) ([]Fig6Row, error) {
	h.Prefetch(h.Figure6Plan(apps))
	out := make([]Fig6Row, 0, len(apps))
	for _, a := range apps {
		cc, err := h.Normalized(a, config.Base(config.CCNUMA))
		if err != nil {
			return nil, err
		}
		sc, err := h.Normalized(a, config.Base(config.SCOMA))
		if err != nil {
			return nil, err
		}
		rn, err := h.Normalized(a, config.Base(config.RNUMA))
		if err != nil {
			return nil, err
		}
		best := cc
		if sc < best {
			best = sc
		}
		out = append(out, Fig6Row{
			App: a, CCNUMA: cc, SCOMA: sc, RNUMA: rn,
			BestOfBase:    best,
			RNUMAOverBest: rn / best,
		})
	}
	return out, nil
}

// ---------------------------------------------------------------------
// Figure 7: cache-size sensitivity.

// Fig7Row holds the five configurations of Figure 7 for one application.
type Fig7Row struct {
	App       string
	CC1K      float64 // CC-NUMA, 1-KB block cache
	CC32K     float64 // CC-NUMA, 32-KB block cache
	R128p320K float64 // R-NUMA, 128-B block cache, 320-KB page cache
	R32Kp320K float64 // R-NUMA, 32-KB block cache, 320-KB page cache
	R128p40M  float64 // R-NUMA, 128-B block cache, 40-MB page cache
}

// fig7Systems are Figure 7's non-base configurations, shared between the
// plan declaration and the assembly so both name identical systems.
type fig7Sys struct {
	cc1k, r32k, r40m config.System
}

func fig7Systems() fig7Sys {
	cc1k := config.Base(config.CCNUMA)
	cc1k.Name = "CC-NUMA b=1K"
	cc1k.BlockCacheBytes = 1 << 10

	r32k := config.Base(config.RNUMA)
	r32k.Name = "R-NUMA b=32K p=320K"
	r32k.BlockCacheBytes = 32 << 10

	r40m := config.Base(config.RNUMA)
	r40m.Name = "R-NUMA b=128 p=40M"
	r40m.PageCacheBytes = 40 << 20
	return fig7Sys{cc1k: cc1k, r32k: r32k, r40m: r40m}
}

// Figure7 computes the cache-size sensitivity study.
func (h *Harness) Figure7(apps []string) ([]Fig7Row, error) {
	h.Prefetch(h.Figure7Plan(apps))
	s := fig7Systems()
	out := make([]Fig7Row, 0, len(apps))
	for _, a := range apps {
		row := Fig7Row{App: a}
		var err error
		if row.CC1K, err = h.Normalized(a, s.cc1k); err != nil {
			return nil, err
		}
		if row.CC32K, err = h.Normalized(a, config.Base(config.CCNUMA)); err != nil {
			return nil, err
		}
		if row.R128p320K, err = h.Normalized(a, config.Base(config.RNUMA)); err != nil {
			return nil, err
		}
		if row.R32Kp320K, err = h.Normalized(a, s.r32k); err != nil {
			return nil, err
		}
		if row.R128p40M, err = h.Normalized(a, s.r40m); err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

// ---------------------------------------------------------------------
// Figure 8: relocation-threshold sensitivity.

// Fig8Thresholds are the paper's threshold values.
var Fig8Thresholds = []int{16, 64, 256, 1024}

// Fig8Row holds execution times at each threshold normalized to T=64.
type Fig8Row struct {
	App string
	ByT map[int]float64
}

// fig8System is R-NUMA at threshold T, as both the plan and the assembly
// name it.
func fig8System(T int) config.System {
	sys := config.Base(config.RNUMA)
	sys.Threshold = T
	sys.Name = fmt.Sprintf("R-NUMA T=%d", T)
	return sys
}

// Figure8 computes the threshold sensitivity study.
func (h *Harness) Figure8(apps []string) ([]Fig8Row, error) {
	h.Prefetch(h.Figure8Plan(apps))
	out := make([]Fig8Row, 0, len(apps))
	for _, a := range apps {
		base, err := h.Run(a, config.Base(config.RNUMA)) // T=64
		if err != nil {
			return nil, err
		}
		row := Fig8Row{App: a, ByT: make(map[int]float64, len(Fig8Thresholds))}
		for _, T := range Fig8Thresholds {
			run, err := h.Run(a, fig8System(T))
			if err != nil {
				return nil, err
			}
			row.ByT[T] = run.Normalized(base)
		}
		out = append(out, row)
	}
	return out, nil
}

// ---------------------------------------------------------------------
// Figure 9: page-fault and TLB-invalidation overhead sensitivity.

// Fig9Row holds the four systems of Figure 9 normalized to the ideal
// machine.
type Fig9Row struct {
	App                                string
	SCOMA, SCOMASoft, RNUMA, RNUMASoft float64
}

// fig9Systems are the SOFT-cost variants of Figure 9.
type fig9Sys struct {
	scSoft, rnSoft config.System
}

func fig9Systems() fig9Sys {
	scSoft := config.Base(config.SCOMA)
	scSoft.Name = "S-COMA-SOFT"
	scSoft.Costs = config.SoftCosts()

	rnSoft := config.Base(config.RNUMA)
	rnSoft.Name = "R-NUMA-SOFT"
	rnSoft.Costs = config.SoftCosts()
	return fig9Sys{scSoft: scSoft, rnSoft: rnSoft}
}

// Figure9 computes the overhead sensitivity study (SOFT = 10-µs traps and
// 5-µs software TLB shootdowns).
func (h *Harness) Figure9(apps []string) ([]Fig9Row, error) {
	h.Prefetch(h.Figure9Plan(apps))
	s := fig9Systems()
	out := make([]Fig9Row, 0, len(apps))
	for _, a := range apps {
		row := Fig9Row{App: a}
		var err error
		if row.SCOMA, err = h.Normalized(a, config.Base(config.SCOMA)); err != nil {
			return nil, err
		}
		if row.SCOMASoft, err = h.Normalized(a, s.scSoft); err != nil {
			return nil, err
		}
		if row.RNUMA, err = h.Normalized(a, config.Base(config.RNUMA)); err != nil {
			return nil, err
		}
		if row.RNUMASoft, err = h.Normalized(a, s.rnSoft); err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

// ---------------------------------------------------------------------

// LuImbalance reports the per-node replacement distribution for lu under
// S-COMA (Section 5.5: two nodes perform over half the replacements).
func (h *Harness) LuImbalance() (topTwoShare float64, err error) {
	run, err := h.Run("lu", config.Base(config.SCOMA))
	if err != nil {
		return 0, err
	}
	var counts []int64
	var total int64
	for _, c := range run.PerNodeReplacements {
		counts = append(counts, c)
		total += c
	}
	if total == 0 {
		return 0, nil
	}
	sort.Slice(counts, func(i, j int) bool { return counts[i] > counts[j] })
	var top int64
	for i := 0; i < 2 && i < len(counts); i++ {
		top += counts[i]
	}
	return float64(top) / float64(total), nil
}

// AllApps returns the Table 3 application names.
func AllApps() []string { return workloads.Names() }
