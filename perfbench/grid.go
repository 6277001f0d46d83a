package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strconv"
	"strings"
	"time"

	"rnuma/internal/harness"
	"rnuma/internal/report"
	"rnuma/internal/tracefile"
	"rnuma/internal/workloads"
)

// gridDigest pins the SHA-256 of the full-scale em3d grid's cell ratios
// (CC-NUMA, S-COMA, R-NUMA per cell, row-major, shortest round-trip
// formatting).
const gridDigest = "62c9ab6ddee7ba5760fcb6bbbabbdc98c67953c58f61a7f6f1c5a2c0dfab1008"

// gridHeatMap is EXPERIMENTS.md's full-scale em3d table: the grid must
// reproduce these rendered lines exactly.
var gridHeatMap = []string{
	"   T=16  . . . .",
	"   T=64  . . . :",
	"  T=256  + + - :",
	"worst cell: 1.11x at (b=16B, T=256)",
}

var (
	gridBlocks     = []int{16, 32, 64, 128}
	gridThresholds = []int{16, 64, 256}
)

// recordEM3D records the full-scale em3d capture (the input of the grid
// and of the daemon's em3d requests).
func recordEM3D() ([]byte, error) {
	app, _ := workloads.ByName("em3d")
	cfg := workloads.DefaultConfig()
	var buf bytes.Buffer
	if _, _, err := tracefile.WriteWorkload(&buf, app.Build(cfg), cfg); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// gridWorkload is EXPERIMENTS.md's full-scale em3d grid: 4 block sizes x
// 3 thresholds, every cell under CC-NUMA, S-COMA and R-NUMA plus the
// cell's ideal machine, on a fresh in-memory store each round.
type gridWorkload struct {
	workers int
	data    []byte
}

func newGrid(workers int) *gridWorkload {
	return &gridWorkload{workers: workers}
}

// prepare records the em3d capture: generator build plus encode.
func (g *gridWorkload) prepare() error {
	data, err := recordEM3D()
	g.data = data
	return err
}

func (g *gridWorkload) round(tr *tracer) (*roundStats, error) {
	h := harness.New(1.0)
	h.Workers = g.workers
	root := tr.begin("run.round", -1)
	sweep := -1
	cs := newCountingStore(harness.NewMemoryStore(), tr, func() int { return sweep })
	h.Store = cs
	xs, ys := sweepValues(gridBlocks), sweepValues(gridThresholds)
	cpu0 := cpuTime()
	t0 := time.Now()

	sweep = tr.begin("harness.sweep_grid", root)
	grid, err := h.SweepGrid(g.data, harness.AxisBlockSize, xs, harness.AxisThreshold, ys)
	tr.end(sweep)
	if err != nil {
		tr.end(root)
		return nil, err
	}
	tGrid := time.Now()
	rid := tr.begin("report.render", root)
	var buf bytes.Buffer
	report.Grid(&buf, grid, 0)
	tr.end(rid)
	wall := time.Since(t0)
	cpu := cpuTime() - cpu0
	tr.end(root)

	if err := checkHeatMap(buf.String()); err != nil {
		return nil, err
	}
	last := cs.last
	if last.Before(t0) {
		last = t0
	}
	rs := &roundStats{
		wall: wall, cpu: cpu, rssKB: selfMaxRSS(),
		jobs: cs.jobs, jobCPU: cs.jobCPU, refs: cs.refs, refsWall: wall, refsCPU: cpu,
		attempted: cs.sims + cs.donated, failed: cs.failed,
		digest: cellDigest(grid),
		layer: map[string]float64{
			"harness.sims":       float64(cs.sims + cs.donated),
			"harness.prefetch_s": last.Sub(t0).Seconds(),
			"harness.assembly_s": tGrid.Sub(last).Seconds(),
			"report.render_ms":   float64(time.Since(tGrid)) / float64(time.Millisecond),
		},
	}
	return rs, nil
}

// checkHeatMap verifies the rendered grid carries EXPERIMENTS.md's
// full-scale heat map and worst cell.
func checkHeatMap(text string) error {
	lines := make(map[string]bool)
	for _, l := range strings.Split(text, "\n") {
		lines[l] = true
	}
	for _, want := range gridHeatMap {
		if !lines[want] {
			return fmt.Errorf("em3d grid: rendered report lacks EXPERIMENTS.md line %q", want)
		}
	}
	return nil
}

// cellDigest hashes every cell's three normalized times.
func cellDigest(g *harness.Grid) string {
	h := sha256.New()
	for _, row := range g.Cells {
		for _, c := range row {
			for _, v := range []float64{c.CCNUMA, c.SCOMA, c.RNUMA} {
				h.Write([]byte(strconv.FormatFloat(v, 'g', -1, 64) + "\n"))
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// extras measures the layers under the grid on the em3d capture it
// sweeps; the generator build lands in set-up here.
func (g *gridWorkload) extras(m map[string]float64, scratch string) error {
	app, _ := workloads.ByName("em3d")
	cfg := workloads.DefaultConfig()
	build, err := layerTime(func() (time.Duration, error) {
		t := time.Now()
		app.Build(cfg)
		return time.Since(t), nil
	})
	if err != nil {
		return err
	}
	m["workloads.build_s"] = build.Seconds()
	return measureLayers(m, app, cfg, scratch, true)
}

func (g *gridWorkload) expected() string { return gridDigest }

func sweepValues(ns []int) []harness.SweepValue {
	out := make([]harness.SweepValue, len(ns))
	for i, n := range ns {
		out[i] = harness.IntValue(n)
	}
	return out
}
