// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section 5), plus micro-benchmarks of the simulator's core structures.
//
// The macro benchmarks run the experiment harness at a reduced workload
// scale so `go test -bench=.` completes in minutes; the cmd/rnuma-experiments
// tool runs the same experiments at full scale. Key outcome numbers are
// attached as benchmark metrics, so regressions in the *results* (not just
// the speed) are visible in benchmark output.
package rnuma_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"rnuma/internal/addr"
	"rnuma/internal/blockcache"
	"rnuma/internal/cache"
	"rnuma/internal/config"
	"rnuma/internal/directory"
	"rnuma/internal/harness"
	"rnuma/internal/machine"
	"rnuma/internal/model"
	"rnuma/internal/pagecache"
	"rnuma/internal/stats"
	"rnuma/internal/telemetry"
	"rnuma/internal/trace"
	"rnuma/internal/tracefile"
	"rnuma/internal/workloads"
)

const benchScale = 0.25

// benchHarness builds a harness whose scheduler fans out across all
// cores: the macro benchmarks measure the full experiment pipeline the
// way the tools run it (concurrent plan execution + serial assembly).
func benchHarness(scale float64) *harness.Harness {
	h := harness.New(scale)
	h.Workers = runtime.GOMAXPROCS(0)
	return h
}

// BenchmarkAnalyticalModel regenerates the Section 3.2 analysis (Table 1,
// Equations 1-3): the competitive ratios and the worst-case bound at the
// optimal threshold.
func BenchmarkAnalyticalModel(b *testing.B) {
	costs := config.BaseCosts()
	var bound float64
	for i := 0; i < b.N; i++ {
		p := model.FromCosts(float64(costs.RemoteFetch),
			float64(costs.PageOpBase()+costs.PageOpPerBlock*32),
			float64(costs.PageOpBase()+costs.PageOpPerBlock*16), 64)
		sweep := p.SweepThreshold(1, 4096, 256)
		if len(sweep) == 0 {
			b.Fatal("empty sweep")
		}
		bound = p.AtOptimum().BoundAtOptimum()
	}
	b.ReportMetric(bound, "worst-case-bound")
}

// BenchmarkTable3Workloads generates all ten applications (Table 3).
func BenchmarkTable3Workloads(b *testing.B) {
	cfg := workloads.DefaultConfig()
	cfg.Scale = benchScale
	for i := 0; i < b.N; i++ {
		for _, app := range workloads.Catalog() {
			w := app.Build(cfg)
			if len(w.Streams) != cfg.Nodes*cfg.CPUsPerNode {
				b.Fatal("bad stream count")
			}
		}
	}
}

// BenchmarkFigure5 regenerates the refetch CDF characterization.
func BenchmarkFigure5(b *testing.B) {
	var skew float64
	for i := 0; i < b.N; i++ {
		h := benchHarness(benchScale)
		curves, err := h.Figure5(harness.AllApps())
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range curves {
			if c.App == "barnes" {
				skew = c.At10
			}
		}
	}
	b.ReportMetric(skew, "barnes-refetch%@10%pages")
}

// BenchmarkTable4 regenerates the refetch/replacement characterization.
func BenchmarkTable4(b *testing.B) {
	var rw float64
	for i := 0; i < b.N; i++ {
		h := benchHarness(benchScale)
		rows, err := h.Table4(harness.AllApps())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.App == "em3d" {
				rw = r.RWPagePct
			}
		}
	}
	b.ReportMetric(rw, "em3d-rw-page%")
}

// BenchmarkFigure6 regenerates the base-system comparison and reports
// R-NUMA's worst-case gap versus the best of CC-NUMA and S-COMA.
func BenchmarkFigure6(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		h := benchHarness(benchScale)
		rows, err := h.Figure6(harness.AllApps())
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, r := range rows {
			if r.RNUMAOverBest > worst {
				worst = r.RNUMAOverBest
			}
		}
	}
	b.ReportMetric(worst, "rnuma-worst-vs-best")
}

// BenchmarkFigure7 regenerates the cache-size sensitivity study.
func BenchmarkFigure7(b *testing.B) {
	var oceanBigPC float64
	for i := 0; i < b.N; i++ {
		h := benchHarness(benchScale)
		rows, err := h.Figure7(harness.AllApps())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.App == "ocean" {
				oceanBigPC = r.R128p40M
			}
		}
	}
	b.ReportMetric(oceanBigPC, "ocean-rnuma-40M")
}

// BenchmarkFigure8 regenerates the threshold sensitivity study.
func BenchmarkFigure8(b *testing.B) {
	var lu1024 float64
	for i := 0; i < b.N; i++ {
		h := benchHarness(benchScale)
		rows, err := h.Figure8(harness.AllApps())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.App == "lu" {
				lu1024 = r.ByT[1024]
			}
		}
	}
	b.ReportMetric(lu1024, "lu-T1024-vs-T64")
}

// BenchmarkFigure9 regenerates the overhead sensitivity study.
func BenchmarkFigure9(b *testing.B) {
	var scHit float64
	for i := 0; i < b.N; i++ {
		h := benchHarness(benchScale)
		rows, err := h.Figure9(harness.AllApps())
		if err != nil {
			b.Fatal(err)
		}
		scHit = 0
		for _, r := range rows {
			if v := r.SCOMASoft / r.SCOMA; v > scHit {
				scHit = v
			}
		}
	}
	b.ReportMetric(scHit, "scoma-soft-max-slowdown")
}

// BenchmarkAblationCounting regenerates the counting-policy ablation
// (DESIGN.md Section 7): refetch-only counters vs naive all-miss counters
// on a producer-consumer workload.
func BenchmarkAblationCounting(b *testing.B) {
	var slowdown float64
	for i := 0; i < b.N; i++ {
		h := benchHarness(benchScale)
		res, err := h.AblationCounting("em3d")
		if err != nil {
			b.Fatal(err)
		}
		slowdown = res.SlowdownPct
	}
	b.ReportMetric(slowdown, "naive-counting-slowdown%")
}

// BenchmarkAblationPlacement regenerates the placement ablation:
// first-touch vs round-robin page homes.
func BenchmarkAblationPlacement(b *testing.B) {
	var slowdown float64
	for i := 0; i < b.N; i++ {
		h := benchHarness(benchScale)
		res, err := h.AblationPlacement("em3d")
		if err != nil {
			b.Fatal(err)
		}
		slowdown = res.SlowdownPct
	}
	b.ReportMetric(slowdown, "roundrobin-slowdown%")
}

// BenchmarkFullEvaluation regenerates every figure and table from one
// deduplicated plan, comparing serial execution against the concurrent
// scheduler. The workers=1 case is the pre-scheduler behavior; the
// workers=N case is what cmd/rnuma-experiments does by default.
func BenchmarkFullEvaluation(b *testing.B) {
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				h := harness.New(benchScale)
				h.Workers = workers
				h.Prefetch(h.PlanAll(harness.AllApps()))
				// Assembly after the fan-out is pure cache reads.
				if _, err := h.Figure6(harness.AllApps()); err != nil {
					b.Fatal(err)
				}
				if _, err := h.Figure8(harness.AllApps()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------
// Micro-benchmarks of the simulator's hot paths.

// BenchmarkMachineReference measures the per-reference simulation cost on
// the full base machine running a mixed workload. The workload is built
// once, outside the timed loop; every iteration replays it through fresh
// stream cursors, so only the machine is timed.
func BenchmarkMachineReference(b *testing.B) {
	app, _ := workloads.ByName("moldyn")
	cfg := workloads.DefaultConfig()
	cfg.Scale = 0.25
	built := app.Build(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	total := int64(0)
	for i := 0; i < b.N; i++ {
		w := built.Fresh()
		m, err := machine.New(config.Base(config.RNUMA), machine.WithHomes(w.Homes))
		if err != nil {
			b.Fatal(err)
		}
		run, err := m.Run(w.Streams)
		if err != nil {
			b.Fatal(err)
		}
		total += run.Refs
	}
	b.ReportMetric(float64(total)/float64(b.N), "refs/run")
}

// BenchmarkL1Cache measures lookup+fill on the per-CPU data cache.
func BenchmarkL1Cache(b *testing.B) {
	c := cache.New(8<<10, 32)
	rng := rand.New(rand.NewSource(1))
	blocks := make([]addr.BlockNum, 4096)
	for i := range blocks {
		blocks[i] = addr.BlockNum(rng.Intn(1 << 16))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk := blocks[i&4095]
		idx := c.Index(uint32(blk))
		if st, _ := c.Lookup(idx, blk); st == cache.Invalid {
			c.Fill(idx, blk, cache.Shared, 0)
		}
	}
}

// BenchmarkBlockCache measures the RAD block-cache hot path.
func BenchmarkBlockCache(b *testing.B) {
	c := blockcache.New(1024)
	rng := rand.New(rand.NewSource(2))
	blocks := make([]addr.BlockNum, 4096)
	for i := range blocks {
		blocks[i] = addr.BlockNum(rng.Intn(1 << 14))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk := blocks[i&4095]
		if _, ok := c.Lookup(blk); !ok {
			c.Fill(blk, blockcache.ReadOnly, false, 0)
		}
	}
}

// BenchmarkDirectoryFetch measures the directory transaction path.
func BenchmarkDirectoryFetch(b *testing.B) {
	d := directory.New(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk := addr.BlockNum(i & 8191)
		d.Fetch(blk, addr.NodeID(i&7), i&15 == 0)
	}
}

// BenchmarkPageCacheLRM measures allocation with LRM victim selection at
// the base 80-frame size.
func BenchmarkPageCacheLRM(b *testing.B) {
	c := pagecache.New(80, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.FreeFrames() == 0 {
			v, _ := c.PickVictim()
			c.Evict(v)
		}
		c.Allocate(addr.PageNum(i), int64(i))
	}
}

// BenchmarkPageCounter measures the dense per-(node,page) counter table
// against the map accumulation it replaced on the refetch path.
func BenchmarkPageCounter(b *testing.B) {
	b.Run("dense", func(b *testing.B) {
		c := stats.NewPageCounter(8, 1024)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Add(addr.NodeID(i&7), addr.PageNum(i&1023), 1)
		}
	})
	b.Run("map", func(b *testing.B) {
		m := make(map[stats.PageKey]int64)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m[stats.PageKey{Node: addr.NodeID(i & 7), Page: addr.PageNum(i & 1023)}]++
		}
	})
}

// BenchmarkTraceEncodeDecode measures the trace-file hot paths: encoding
// a workload's streams to the binary format and decoding them back. The
// bytes/ref metric tracks the format's density (the paper-shaped sweeps
// should stay in the 2-4 byte range against 12-byte in-memory refs).
func BenchmarkTraceEncodeDecode(b *testing.B) {
	cfg := workloads.DefaultConfig()
	cfg.Scale = benchScale
	app, _ := workloads.ByName("moldyn")

	var encoded bytes.Buffer
	refs, _, err := tracefile.WriteWorkload(&encoded, app.Build(cfg), cfg)
	if err != nil {
		b.Fatal(err)
	}
	perRef := float64(encoded.Len()) / float64(refs)

	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(encoded.Len()))
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			buf.Grow(encoded.Len())
			if _, _, err := tracefile.WriteWorkload(&buf, app.Build(cfg), cfg); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(perRef, "bytes/ref")
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(encoded.Len()))
		for i := 0; i < b.N; i++ {
			d, err := tracefile.NewReader(bytes.NewReader(encoded.Bytes()))
			if err != nil {
				b.Fatal(err)
			}
			counts, err := d.Drain()
			if err != nil {
				b.Fatal(err)
			}
			var total int64
			for _, c := range counts {
				total += c
			}
			if total != refs {
				b.Fatalf("decoded %d refs, wrote %d", total, refs)
			}
		}
		b.ReportMetric(perRef, "bytes/ref")
	})
}

// BenchmarkReplayVsGenerate compares the two ways to feed the machine:
// building the synthetic generator live versus replaying its recorded
// trace. Replay skips workload construction but adds decode work; the
// pair bounds what recorded-production-traffic ingestion costs.
func BenchmarkReplayVsGenerate(b *testing.B) {
	cfg := workloads.DefaultConfig()
	cfg.Scale = benchScale
	app, _ := workloads.ByName("moldyn")
	sys := config.Base(config.RNUMA)

	var encoded bytes.Buffer
	if _, _, err := tracefile.WriteWorkload(&encoded, app.Build(cfg), cfg); err != nil {
		b.Fatal(err)
	}

	b.Run("generate", func(b *testing.B) {
		var refs int64
		for i := 0; i < b.N; i++ {
			w := app.Build(cfg)
			m, err := machine.New(sys, machine.WithHomes(w.Homes), machine.WithPages(w.SharedPages))
			if err != nil {
				b.Fatal(err)
			}
			run, err := m.Run(w.Streams)
			if err != nil {
				b.Fatal(err)
			}
			refs = run.Refs
		}
		b.ReportMetric(float64(refs), "refs/run")
	})
	b.Run("replay", func(b *testing.B) {
		var refs int64
		for i := 0; i < b.N; i++ {
			d, err := tracefile.NewReader(bytes.NewReader(encoded.Bytes()))
			if err != nil {
				b.Fatal(err)
			}
			h := d.Header()
			m, err := machine.New(sys, machine.WithHomes(h.HomeFunc()), machine.WithPages(h.SharedPages))
			if err != nil {
				b.Fatal(err)
			}
			run, err := m.Run(d.Streams())
			if err != nil {
				b.Fatal(err)
			}
			if err := d.Err(); err != nil {
				b.Fatal(err)
			}
			refs = run.Refs
		}
		b.ReportMetric(float64(refs), "refs/run")
	})
	// The probed replay bounds the telemetry tax at the default 64Ki-ref
	// window: the acceptance bar is within 10% of the plain replay above
	// (the per-reference cost is one int64 compare; the window flush
	// amortizes to noise).
	b.Run("replay-telemetry", func(b *testing.B) {
		var intervals int
		for i := 0; i < b.N; i++ {
			d, err := tracefile.NewReader(bytes.NewReader(encoded.Bytes()))
			if err != nil {
				b.Fatal(err)
			}
			h := d.Header()
			m, err := machine.New(sys, machine.WithHomes(h.HomeFunc()), machine.WithPages(h.SharedPages),
				machine.WithTelemetry(telemetry.Config{Window: telemetry.DefaultWindow}))
			if err != nil {
				b.Fatal(err)
			}
			run, err := m.Run(d.Streams())
			if err != nil {
				b.Fatal(err)
			}
			if err := d.Err(); err != nil {
				b.Fatal(err)
			}
			if run.Timeline == nil {
				b.Fatal("probed replay captured no timeline")
			}
			intervals = len(run.Timeline.Intervals)
		}
		b.ReportMetric(float64(intervals), "intervals")
	})
}

// BenchmarkSnapshotFork measures the checkpoint/fork sweep machinery:
// "replay-one" is the baseline (a single full R-NUMA replay of the
// capture); "fork-sweep-5" runs a five-point threshold sweep through the
// trunk-and-fork engine, which replays the shared prefix once and forks
// each point from a snapshot. The sweep's wall clock over the baseline's
// is the headline ratio (the acceptance bound is 2x a single replay;
// five independent replays would be 5x). The saving is proportional to
// how deep into the trace the counter watermarks sit — em3d's refetch
// counters climb slowly, so its five points share a long prefix.
func BenchmarkSnapshotFork(b *testing.B) {
	cfg := workloads.DefaultConfig()
	cfg.Scale = benchScale
	app, _ := workloads.ByName("em3d")
	sys := config.Base(config.RNUMA)
	thresholds := []int{8, 16, 64, 256, 1024}

	var encoded bytes.Buffer
	if _, _, err := tracefile.WriteWorkload(&encoded, app.Build(cfg), cfg); err != nil {
		b.Fatal(err)
	}
	data := encoded.Bytes()

	b.Run("replay-one", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := harness.Replay(bytes.NewReader(data), sys); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fork-sweep-5", func(b *testing.B) {
		var refs int64
		for i := 0; i < b.N; i++ {
			res, err := harness.Replay(bytes.NewReader(data), sys, harness.WithThresholds(thresholds...))
			if err != nil {
				b.Fatal(err)
			}
			if len(res.ByThreshold) != len(thresholds) {
				b.Fatalf("%d runs for %d thresholds", len(res.ByThreshold), len(thresholds))
			}
			refs = res.ByThreshold[64].Refs
		}
		b.ReportMetric(float64(len(thresholds)), "points")
		b.ReportMetric(float64(refs), "refs/point")
	})
}

// BenchmarkGridSweep measures the two-axis grid engine end to end on a
// cold store: a 2x3 block x threshold grid over a recorded em3d capture
// covers the geometry transforms, the trunk-and-fork threshold lines
// (each grid line replays its shared prefix once), and cell assembly.
// A fresh harness per iteration keeps the memo store from turning later
// iterations into cache reads.
func BenchmarkGridSweep(b *testing.B) {
	cfg := workloads.DefaultConfig()
	cfg.Scale = benchScale
	app, _ := workloads.ByName("em3d")
	var encoded bytes.Buffer
	if _, _, err := tracefile.WriteWorkload(&encoded, app.Build(cfg), cfg); err != nil {
		b.Fatal(err)
	}
	data := encoded.Bytes()
	blocks := []harness.SweepValue{harness.IntValue(16), harness.IntValue(32)}
	thresholds := []harness.SweepValue{harness.IntValue(16), harness.IntValue(64), harness.IntValue(256)}

	var worst float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := benchHarness(benchScale)
		g, err := h.SweepGrid(data, harness.AxisBlockSize, blocks, harness.AxisThreshold, thresholds)
		if err != nil {
			b.Fatal(err)
		}
		if len(g.Cells) != 3 || len(g.Cells[0]) != 2 {
			b.Fatalf("grid is %dx%d, want 2x3", len(g.Cells[0]), len(g.Cells))
		}
		worst = harness.FindKnee(g.Row(0), 0).MaxRatio
		for i := range g.Cells {
			if k := harness.FindKnee(g.Row(i), 0); k.MaxRatio > worst {
				worst = k.MaxRatio
			}
		}
	}
	b.ReportMetric(float64(len(blocks)*len(thresholds)), "cells")
	b.ReportMetric(worst, "worst-rnuma-vs-best")
}

// BenchmarkTraceGeneration measures reference stream production.
func BenchmarkTraceGeneration(b *testing.B) {
	refs := make([]trace.Ref, 1024)
	for i := range refs {
		refs[i] = trace.Ref{Page: addr.PageNum(i), Off: uint16(i % 128)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := trace.Repeat(refs, 4)
		n := 0
		for {
			if _, ok := s.Next(); !ok {
				break
			}
			n++
		}
		if n != 4096 {
			b.Fatal("bad repeat")
		}
	}
}
