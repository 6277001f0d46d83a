package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"time"

	"rnuma/internal/config"
	"rnuma/internal/harness"
	"rnuma/internal/model"
	"rnuma/internal/report"
	"rnuma/internal/stats"
	"rnuma/internal/workloads"
)

// evalScale is the scale bench_test.go runs the evaluation at.
const evalScale = 0.25

// evalDigest pins the SHA-256 of the rendered evaluation — byte for byte
// what `rnuma-experiments -exp all -scale 0.25` prints. A model change
// that moves any figure changes it; update it together with the golden
// fixtures.
const evalDigest = "4478648ed468529757c83afc0d9156b595896816c606d01021b613ad95ca66c8"

// evalWorkload is the whole paper evaluation: PlanAll over the ten
// catalog applications prefetched by the concurrent scheduler, then
// every figure and table assembled from the store and rendered.
//
// The plan keeps the catalog's order whatever the seed: which simulations
// overlap on the two workers sets the process's peak memory, so a
// seed-drawn order would turn max_rss_mb into a function of the seed.
type evalWorkload struct {
	workers int
}

func newEval(workers int) *evalWorkload {
	return &evalWorkload{workers: workers}
}

// prepare does nothing: the evaluation is generator driven, so it has no
// inputs to build, and its set-up is the golden check alone.
func (e *evalWorkload) prepare() error { return nil }

func (e *evalWorkload) round(tr *tracer) (*roundStats, error) {
	h := harness.New(evalScale)
	h.Workers = e.workers
	root := tr.begin("run.round", -1)
	pre := -1
	cs := newCountingStore(harness.NewMemoryStore(), tr, func() int { return pre })
	h.Store = cs
	cpu0 := cpuTime()
	t0 := time.Now()

	pre = tr.begin("harness.prefetch", root)
	plan := h.PlanAll(harness.AllApps())
	h.Prefetch(plan)
	tr.end(pre)
	tPre := time.Now()

	asm := tr.begin("harness.assembly", root)
	text, render, err := renderEval(h, tr, asm)
	tr.end(asm)
	wall := time.Since(t0)
	cpu := cpuTime() - cpu0
	tr.end(root)
	if err != nil {
		return nil, err
	}

	var base []*stats.Run
	for _, app := range harness.AllApps() {
		run, err := h.Run(app, config.Base(config.RNUMA))
		if err != nil {
			return nil, err
		}
		base = append(base, run)
	}
	sum := sha256.Sum256(text)
	rs := &roundStats{
		wall: wall, cpu: cpu, rssKB: selfMaxRSS(),
		jobs: cs.jobs, jobCPU: cs.jobCPU, refs: cs.refs, refsWall: wall, refsCPU: cpu,
		attempted: int64(plan.Len()), failed: cs.failed,
		digest: fmt.Sprintf("%x", sum),
		layer: map[string]float64{
			"harness.sims":       float64(cs.sims),
			"harness.prefetch_s": tPre.Sub(t0).Seconds(),
			"harness.assembly_s": wall.Seconds() - tPre.Sub(t0).Seconds(),
			"report.render_ms":   float64(render) / float64(time.Millisecond),
		},
	}
	addSimCounters(rs.layer, base)
	return rs, nil
}

// renderEval assembles and renders every figure and table exactly as
// `rnuma-experiments -exp all` prints them, timing the report calls.
func renderEval(h *harness.Harness, tr *tracer, parent int) ([]byte, time.Duration, error) {
	apps := harness.AllApps()
	var buf bytes.Buffer
	var render time.Duration
	draw := func(f func()) {
		id := tr.begin("report.render", parent)
		t := time.Now()
		f()
		render += time.Since(t)
		tr.end(id)
	}
	sep := func() { fmt.Fprintln(&buf, "\n"+strings.Repeat("=", 80)+"\n") }

	costs := config.BaseCosts()
	p := model.FromCosts(float64(costs.RemoteFetch),
		float64(costs.PageOpBase()+costs.PageOpPerBlock*32),
		float64(costs.PageOpBase()+costs.PageOpPerBlock*16), 64)
	draw(func() { report.Model(&buf, p) })
	sep()
	curves, err := h.Figure5(apps)
	if err != nil {
		return nil, 0, err
	}
	draw(func() { report.Figure5(&buf, curves) })
	sep()
	t4, err := h.Table4(apps)
	if err != nil {
		return nil, 0, err
	}
	draw(func() { report.Table4(&buf, t4) })
	sep()
	f6, err := h.Figure6(apps)
	if err != nil {
		return nil, 0, err
	}
	draw(func() { report.Figure6(&buf, f6) })
	sep()
	f7, err := h.Figure7(apps)
	if err != nil {
		return nil, 0, err
	}
	draw(func() { report.Figure7(&buf, f7) })
	sep()
	f8, err := h.Figure8(apps)
	if err != nil {
		return nil, 0, err
	}
	draw(func() { report.Figure8(&buf, f8) })
	sep()
	f9, err := h.Figure9(apps)
	if err != nil {
		return nil, 0, err
	}
	draw(func() { report.Figure9(&buf, f9) })
	sep()
	share, err := h.LuImbalance()
	if err != nil {
		return nil, 0, err
	}
	draw(func() {
		fmt.Fprintf(&buf, "LU LOAD IMBALANCE (Section 5.5) — top-2 nodes' share of S-COMA page replacements: %.0f%%\n", share*100)
		fmt.Fprintln(&buf, "(the paper attributes lu's relocation-overhead sensitivity to two overloaded nodes)")
	})
	return buf.Bytes(), render, nil
}

// extras measures the layers under the evaluation: the generators it
// builds, and the layer stack driven by its highest-hit application's
// capture (moldyn, where an L1 hit filter would show).
func (e *evalWorkload) extras(m map[string]float64, scratch string) error {
	cfg := workloads.DefaultConfig()
	cfg.Scale = evalScale
	build, err := layerTime(func() (time.Duration, error) {
		t := time.Now()
		for _, app := range workloads.Catalog() {
			app.Build(cfg)
		}
		return time.Since(t), nil
	})
	if err != nil {
		return err
	}
	m["workloads.build_s"] = build.Seconds()
	app, _ := workloads.ByName("moldyn")
	return measureLayers(m, app, cfg, scratch, false)
}

func (e *evalWorkload) expected() string { return evalDigest }
