package harness

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"rnuma/internal/config"
	"rnuma/internal/stats"
	"rnuma/internal/workloads"
)

// TestPlanDedup: figures that share configurations (the ideal baseline,
// the base protocols) contribute each shared job exactly once to a
// combined plan.
func TestPlanDedup(t *testing.T) {
	h := New(0.1)
	p := NewPlan()
	p.Add(h.Figure6Plan([]string{"fft", "lu"}).Jobs()...)
	p.Add(h.Figure7Plan([]string{"fft", "lu"}).Jobs()...)
	// Figure 6: ideal, cc, sc, rn (4 systems). Figure 7 adds cc1k, r32k,
	// r40m and re-declares ideal, cc, rn. Union: 7 systems x 2 apps.
	if got, want := p.Len(), 7*2; got != want {
		t.Errorf("combined plan has %d jobs, want %d (shared configs must dedup)", got, want)
	}
	keys := make(map[string]struct{})
	for _, j := range p.Jobs() {
		if _, dup := keys[j.Key()]; dup {
			t.Errorf("duplicate job key %q in plan", j.Key())
		}
		keys[j.Key()] = struct{}{}
	}
}

// TestPlanAllCoversFigures: the whole-evaluation plan contains every
// figure's jobs.
func TestPlanAllCoversFigures(t *testing.T) {
	h := New(0.1)
	apps := []string{"fft", "lu"}
	all := make(map[string]struct{})
	for _, j := range h.PlanAll(apps).Jobs() {
		all[j.Key()] = struct{}{}
	}
	for _, sub := range []*Plan{
		h.Figure5Plan(apps), h.Table4Plan(apps), h.Figure6Plan(apps),
		h.Figure7Plan(apps), h.Figure8Plan(apps), h.Figure9Plan(apps), h.LuPlan(),
	} {
		for _, j := range sub.Jobs() {
			if _, ok := all[j.Key()]; !ok {
				t.Errorf("PlanAll missing job %q", j.Key())
			}
		}
	}
}

// TestSingleflightRunsEachJobOnce: concurrent requests for the same
// configuration perform exactly one simulation; everyone shares the
// pointer-identical cached result.
func TestSingleflightRunsEachJobOnce(t *testing.T) {
	var buf bytes.Buffer
	h := New(0.05)
	h.Log = &buf
	h.Workers = 8
	sys := config.Base(config.CCNUMA)
	const callers = 16
	var wg sync.WaitGroup
	results := make([]any, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			run, err := h.Run("fft", sys)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = run
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d got a distinct run; memoization broken", i)
		}
	}
	launches := strings.Count(buf.String(), "running")
	if launches != 1 {
		t.Errorf("%d simulations launched for one key, want 1", launches)
	}
}

// renderFig7 serializes Figure 7 rows for byte-exact comparison.
func renderFig7(rows []Fig7Row) string {
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%s %.9f %.9f %.9f %.9f %.9f\n",
			r.App, r.CC1K, r.CC32K, r.R128p320K, r.R32Kp320K, r.R128p40M)
	}
	return b.String()
}

// renderFig8 serializes Figure 8 rows for byte-exact comparison.
func renderFig8(rows []Fig8Row) string {
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%s", r.App)
		for _, T := range Fig8Thresholds {
			fmt.Fprintf(&b, " T%d=%.9f", T, r.ByT[T])
		}
		fmt.Fprintf(&b, "\n")
	}
	return b.String()
}

// TestParallelMatchesSerial: the concurrent scheduler's Figure 7 and
// Figure 8 output is byte-identical to the serial scheduler's on the same
// grid (run under -race in CI; the acceptance criterion for the
// scheduler's determinism).
func TestParallelMatchesSerial(t *testing.T) {
	apps := []string{"fft", "barnes"}
	scale := 0.1

	serial := New(scale)
	serial.Workers = 1
	s7, err := serial.Figure7(apps)
	if err != nil {
		t.Fatal(err)
	}
	s8, err := serial.Figure8(apps)
	if err != nil {
		t.Fatal(err)
	}

	parallel := New(scale)
	parallel.Workers = 8
	p7, err := parallel.Figure7(apps)
	if err != nil {
		t.Fatal(err)
	}
	p8, err := parallel.Figure8(apps)
	if err != nil {
		t.Fatal(err)
	}

	if got, want := renderFig7(p7), renderFig7(s7); got != want {
		t.Errorf("Figure 7 parallel != serial:\nparallel:\n%s\nserial:\n%s", got, want)
	}
	if got, want := renderFig8(p8), renderFig8(s8); got != want {
		t.Errorf("Figure 8 parallel != serial:\nparallel:\n%s\nserial:\n%s", got, want)
	}
}

// TestPrefetchProgressCountsOnlySimulations: the progress line counts
// the references of the runs the Prefetch itself simulated, so a warm
// re-Prefetch of the same plan — every job a store hit — reports 0 refs
// instead of the whole plan's references over a near-zero elapsed time.
func TestPrefetchProgressCountsOnlySimulations(t *testing.T) {
	h := New(0.05)
	h.Workers = 2
	p := NewPlan().AddRuns([]string{"fft"}, config.Base(config.CCNUMA), config.Base(config.SCOMA))
	last := func(b *bytes.Buffer) string {
		lines := strings.Split(strings.TrimSpace(b.String()), "\n")
		return lines[len(lines)-1]
	}

	var cold bytes.Buffer
	h.Progress = &cold
	h.Prefetch(p)
	var refs int64
	for _, j := range p.Jobs() {
		run, err := h.runJob(j)
		if err != nil {
			t.Fatal(err)
		}
		refs += run.Refs
	}
	if want := fmt.Sprintf("2/2 jobs, %.2fM refs,", float64(refs)/1e6); !strings.Contains(last(&cold), want) {
		t.Errorf("cold Prefetch reported %q, want %q", last(&cold), want)
	}

	var warm bytes.Buffer
	h.Progress = &warm
	h.Prefetch(p)
	if want := "2/2 jobs, 0.00M refs, 0.00M refs/s"; !strings.Contains(last(&warm), want) {
		t.Errorf("warm Prefetch reported %q, want %q", last(&warm), want)
	}
}

// TestByAppGroupsStably: Prefetch's dispatch order runs each
// application's jobs back to back, applications in order of first
// appearance and each one's jobs in plan order.
func TestByAppGroupsStably(t *testing.T) {
	cc, sc := config.Base(config.CCNUMA), config.Base(config.SCOMA)
	jobs := []Job{NewJob("lu", cc), NewJob("fft", cc), NewJob("lu", sc), NewJob("barnes", cc), NewJob("fft", sc)}
	got := byApp(jobs)
	for i, w := range []int{0, 2, 1, 4, 3} {
		if got[i].Key() != jobs[w].Key() {
			t.Errorf("byApp position %d holds %s, want %s", i, got[i].Key(), jobs[w].Key())
		}
	}
}

// TestSharedBuildsMatchFreshBuilds: simulations that replay one shared
// build per application, two at a time (the test runs under -race in
// CI), give results identical under stats.Diff to simulations that each
// build their own workload.
func TestSharedBuildsMatchFreshBuilds(t *testing.T) {
	apps := []string{"fft", "moldyn", "lu"}
	p := NewPlan().AddRuns(apps, config.Ideal(), config.Base(config.CCNUMA),
		config.Base(config.SCOMA), config.Base(config.RNUMA))
	shared := New(0.05)
	shared.Workers = 2
	shared.Prefetch(p)
	if got := shared.Simulations(); got != int64(p.Len()) {
		t.Fatalf("Prefetch simulated %d jobs, want %d", got, p.Len())
	}
	fresh := New(0.05)
	fresh.Workers = 1
	for _, j := range p.Jobs() {
		got, ok, err := shared.Store.Get(shared.KeyFor(j))
		if !ok || err != nil {
			t.Fatalf("%s: shared-build result missing (%v)", j.Key(), err)
		}
		want, err := fresh.runJob(j)
		if err != nil {
			t.Fatal(err)
		}
		if d := stats.Diff(want, got); !d.Identical() {
			t.Errorf("%s: shared build differs from a fresh build in %d counters", j.Key(), d.Differing)
		}
	}
}

// TestSerialPrefetchSimulatesEveryJob: a one-worker Prefetch runs the
// whole plan through the worker pool and its shared builds, as a
// concurrent one does, rather than leaving each job to assembly.
func TestSerialPrefetchSimulatesEveryJob(t *testing.T) {
	p := NewPlan().AddRuns([]string{"fft", "lu"}, config.Ideal(), config.Base(config.CCNUMA))
	h := New(0.05)
	h.Workers = 1
	h.Prefetch(p)
	if got := h.Simulations(); got != int64(p.Len()) {
		t.Fatalf("serial Prefetch simulated %d of %d jobs", got, p.Len())
	}
}

// TestBuildsShareAndDrop: one Prefetch's builds hand every simulation of
// an (application, config) group fresh cursors over the same references,
// drop the build after the group's last job, and leave registered
// sources out, including one that shadows a catalog name.
func TestBuildsShareAndDrop(t *testing.T) {
	h := New(0.05)
	load(t, h, KindSpec, []byte(strings.Replace(testSpec, `"src-test"`, `"fft"`, 1)))
	cc, sc := config.Base(config.CCNUMA), config.Base(config.SCOMA)
	jobs := []Job{NewJob("lu", cc), NewJob("lu", sc), NewJob("fft", cc)}
	b := h.newBuilds(jobs)
	if len(b.groups) != 1 {
		t.Fatalf("%d build groups, want 1 (lu; the registered fft is not shared)", len(b.groups))
	}
	app, _ := workloads.ByName("lu")
	cfg := h.workloadConfig(cc)
	w1, w2 := b.workload(app, cfg), b.workload(app, cfg)
	v1 := w1.Streams[0].NextBatch(1)
	v2 := w2.Streams[0].NextBatch(1)
	if len(v1) != 1 || &v1[0] != &v2[0] {
		t.Error("two simulations of one group do not replay the same references")
	}
	if r, ok := w2.Streams[1].Next(); !ok || r != w1.Streams[1].NextBatch(1)[0] {
		t.Error("a fresh cursor does not start at the first reference")
	}
	b.done(jobs[0])
	b.done(jobs[2])
	if len(b.groups) != 1 {
		t.Error("build dropped before its group's last job")
	}
	b.done(jobs[1])
	if len(b.groups) != 0 {
		t.Error("build kept after its group's last job")
	}
}
