package harness

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rnuma/internal/config"
	"rnuma/internal/machine"
	"rnuma/internal/stats"
	"rnuma/internal/workloads"
)

// Job identifies one simulation: an application under a system
// configuration, optionally tagged with ablation machine options. Jobs are
// the unit the scheduler deduplicates and fans out; two jobs with the same
// Key share one simulation through the memo cache.
type Job struct {
	App string
	Sys config.System

	// Tag distinguishes ablation variants that share (App, Sys) but run
	// with different machine options; empty for plain runs.
	Tag string

	opts      []machine.Option
	skipHomes bool // round-robin ablation: omit the workload's home map
}

// NewJob builds a plain (untagged) job.
func NewJob(app string, sys config.System) Job {
	return Job{App: app, Sys: sys}
}

// Key is the job's memo-cache identity.
func (j Job) Key() string {
	k := j.App + "|" + sysKey(j.Sys)
	if j.Tag != "" {
		k += "|" + j.Tag
	}
	return k
}

// Plan is a deduplicated set of jobs: each figure/table declares its
// (application, system) pairs into a plan, and shared configurations (for
// example the ideal normalization baseline every figure divides by) appear
// once no matter how many figures request them.
type Plan struct {
	jobs []Job
	seen map[string]struct{}
}

// NewPlan builds an empty plan.
func NewPlan() *Plan {
	return &Plan{seen: make(map[string]struct{})}
}

// Add appends jobs, skipping any already planned.
func (p *Plan) Add(jobs ...Job) *Plan {
	for _, j := range jobs {
		k := j.Key()
		if _, dup := p.seen[k]; dup {
			continue
		}
		p.seen[k] = struct{}{}
		p.jobs = append(p.jobs, j)
	}
	return p
}

// AddRuns appends one job per (app, sys) pair.
func (p *Plan) AddRuns(apps []string, systems ...config.System) *Plan {
	for _, a := range apps {
		for _, s := range systems {
			p.Add(NewJob(a, s))
		}
	}
	return p
}

// Jobs returns the planned jobs in insertion order.
func (p *Plan) Jobs() []Job { return p.jobs }

// Len reports how many distinct jobs are planned.
func (p *Plan) Len() int { return len(p.jobs) }

// ---------------------------------------------------------------------
// Per-figure plans. Each declares exactly the (app, system) grid its
// figure consumes, so callers can batch several figures into one plan and
// execute the union concurrently before serial assembly.

// Figure5Plan declares Figure 5's grid: every app under base CC-NUMA.
func (h *Harness) Figure5Plan(apps []string) *Plan {
	return NewPlan().AddRuns(apps, config.Base(config.CCNUMA))
}

// Table4Plan declares Table 4's grid: every app under all three base
// protocols.
func (h *Harness) Table4Plan(apps []string) *Plan {
	return NewPlan().AddRuns(apps,
		config.Base(config.CCNUMA), config.Base(config.SCOMA), config.Base(config.RNUMA))
}

// Figure6Plan declares Figure 6's grid: the three base protocols plus the
// ideal normalization baseline.
func (h *Harness) Figure6Plan(apps []string) *Plan {
	return NewPlan().AddRuns(apps,
		config.Ideal(), config.Base(config.CCNUMA), config.Base(config.SCOMA), config.Base(config.RNUMA))
}

// Figure7Plan declares Figure 7's grid: the five cache-size
// configurations plus the ideal baseline.
func (h *Harness) Figure7Plan(apps []string) *Plan {
	s := fig7Systems()
	return NewPlan().AddRuns(apps,
		config.Ideal(), s.cc1k, config.Base(config.CCNUMA), config.Base(config.RNUMA), s.r32k, s.r40m)
}

// Figure8Plan declares Figure 8's grid: R-NUMA at every threshold.
func (h *Harness) Figure8Plan(apps []string) *Plan {
	p := NewPlan().AddRuns(apps, config.Base(config.RNUMA))
	for _, T := range Fig8Thresholds {
		p.AddRuns(apps, fig8System(T))
	}
	return p
}

// Figure9Plan declares Figure 9's grid: S-COMA and R-NUMA under base and
// SOFT costs, plus the ideal baseline.
func (h *Harness) Figure9Plan(apps []string) *Plan {
	s := fig9Systems()
	return NewPlan().AddRuns(apps,
		config.Ideal(), config.Base(config.SCOMA), s.scSoft, config.Base(config.RNUMA), s.rnSoft)
}

// LuPlan declares the Section 5.5 lu imbalance run.
func (h *Harness) LuPlan() *Plan {
	return NewPlan().Add(NewJob("lu", config.Base(config.SCOMA)))
}

// PlanAll declares every figure and table of the evaluation at once.
func (h *Harness) PlanAll(apps []string) *Plan {
	p := NewPlan()
	for _, sub := range []*Plan{
		h.Figure5Plan(apps), h.Table4Plan(apps), h.Figure6Plan(apps),
		h.Figure7Plan(apps), h.Figure8Plan(apps), h.Figure9Plan(apps), h.LuPlan(),
	} {
		p.Add(sub.Jobs()...)
	}
	return p
}

// ---------------------------------------------------------------------
// Scheduler.

// workers resolves the concurrency bound: Workers when positive, else
// GOMAXPROCS.
func (h *Harness) workers() int {
	if h.Workers > 0 {
		return h.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// progressPeriod is how often Prefetch reports scheduler progress when
// the harness has a Progress writer.
const progressPeriod = 2 * time.Second

// Prefetch executes the plan's jobs across the harness's worker pool,
// filling the memo cache. Figures assembled afterwards read every result
// from the cache, so their output is byte-identical to a serial run; only
// the wall-clock order of simulations changes. Job errors are left in the
// cache and surface from the (deterministic, serial) assembly instead, so
// a failing configuration reports the same error no matter how the
// schedule interleaved.
//
// Jobs are dispatched grouped by application (see byApp), and a catalog
// workload is built once per (application, workload config) for all the
// simulations of the group, then dropped after the group's last job. A
// harness with one worker runs the same pool and shared builds with a
// single goroutine.
func (h *Harness) Prefetch(p *Plan) {
	jobs := p.Jobs()
	if len(jobs) < 2 {
		return // a lone job gains nothing: assembly runs it on first use
	}
	w := min(h.workers(), len(jobs))
	jobs = byApp(jobs)
	b := h.newBuilds(jobs)
	var done, refs atomic.Int64
	finish := h.progressLoop(len(jobs), &done, &refs)
	ch := make(chan Job)
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range ch {
				run, simulated, _ := h.runShared(j, b) //nolint:errcheck // cached; assembly reports it
				if simulated && run != nil {
					refs.Add(run.Refs)
				}
				b.done(j)
				done.Add(1)
			}
		}()
	}
	for _, j := range jobs {
		ch <- j
	}
	close(ch)
	wg.Wait()
	finish()
}

// byApp returns the jobs reordered so each application's jobs run back to
// back: applications in order of first appearance, each one's jobs in
// plan order. A group's simulations then share one workload build.
func byApp(jobs []Job) []Job {
	first := make(map[string]int)
	for _, j := range jobs {
		if _, ok := first[j.App]; !ok {
			first[j.App] = len(first)
		}
	}
	out := append([]Job(nil), jobs...)
	sort.SliceStable(out, func(a, b int) bool { return first[out[a].App] < first[out[b].App] })
	return out
}

// builds shares catalog workload builds among one Prefetch's jobs. The
// first simulation of an (application, config) group builds the
// workload; every simulation of the group replays the same reference
// slices through fresh cursors; the group's last job drops the build.
// Registered sources are never shared: they keep precedence over the
// catalog, and trace sources hand out consume-once streams.
type builds struct {
	h      *Harness
	mu     sync.Mutex
	groups map[buildKey]*buildGroup
}

type buildKey struct {
	app string
	cfg workloads.Config
}

type buildGroup struct {
	pending int // jobs of the group not yet done
	once    sync.Once
	w       *workloads.Workload
}

// newBuilds counts the plan's jobs per catalog (application, config).
func (h *Harness) newBuilds(jobs []Job) *builds {
	b := &builds{h: h, groups: make(map[buildKey]*buildGroup)}
	for _, j := range jobs {
		if k, ok := b.key(j); ok {
			g := b.groups[k]
			if g == nil {
				g = &buildGroup{}
				b.groups[k] = g
			}
			g.pending++
		}
	}
	return b
}

// key is a job's build group; ok is false for registered sources.
func (b *builds) key(j Job) (buildKey, bool) {
	if b.h.source(j.App) != nil {
		return buildKey{}, false
	}
	return buildKey{j.App, b.h.workloadConfig(j.Sys)}, true
}

// workload returns app's workload at cfg with fresh stream cursors,
// building it on the group's first call; a nil builds (a job run outside
// Prefetch) builds afresh. newBuilds counted every job's group before
// dispatch and done drops a group only after its last job, so the group
// exists.
func (b *builds) workload(app workloads.App, cfg workloads.Config) *workloads.Workload {
	if b == nil {
		return app.Build(cfg)
	}
	b.mu.Lock()
	g := b.groups[buildKey{app.Name, cfg}]
	b.mu.Unlock()
	g.once.Do(func() { g.w = app.Build(cfg) })
	return g.w.Fresh()
}

// done retires one job of its group, dropping the build after the last.
func (b *builds) done(j Job) {
	k, ok := b.key(j)
	if !ok {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if g := b.groups[k]; g != nil {
		if g.pending--; g.pending == 0 {
			delete(b.groups, k)
		}
	}
}

// progressLoop starts the periodic progress reporter (a no-op without a
// Progress writer) and returns the function that stops it and emits the
// final jobs/refs/throughput summary line.
func (h *Harness) progressLoop(total int, done, refs *atomic.Int64) (finish func()) {
	if h.Progress == nil {
		return func() {}
	}
	start := time.Now()
	line := func() {
		el := time.Since(start).Seconds()
		if el <= 0 {
			el = 1e-9
		}
		r := refs.Load()
		fmt.Fprintf(h.Progress, "progress: %d/%d jobs, %.2fM refs, %.2fM refs/s\n",
			done.Load(), total, float64(r)/1e6, float64(r)/1e6/el)
	}
	stop := make(chan struct{})
	go func() {
		t := time.NewTicker(progressPeriod)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				line()
			}
		}
	}()
	return func() {
		close(stop)
		line()
	}
}

// RunPlan executes the plan and returns its results keyed by Job.Key, in
// the plan's declaration order. Unlike Prefetch it propagates the first
// (declaration-order) error.
func (h *Harness) RunPlan(p *Plan) (map[string]*stats.Run, error) {
	h.Prefetch(p)
	out := make(map[string]*stats.Run, p.Len())
	for _, j := range p.Jobs() {
		run, err := h.runJob(j)
		if err != nil {
			return nil, err
		}
		out[j.Key()] = run
	}
	return out, nil
}
