// Package report renders the harness's experiment results as the paper
// presents them: fixed-width text tables and ASCII bar charts, one per
// table/figure of the evaluation section.
package report

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"rnuma/internal/harness"
	"rnuma/internal/model"
	"rnuma/internal/stats"
)

// bar renders a horizontal bar scaled to `width` columns at `max` value.
func bar(v, max float64, width int) string {
	if max <= 0 {
		return ""
	}
	n := int(v / max * float64(width))
	if n > width {
		n = width
	}
	if n < 0 {
		n = 0
	}
	return strings.Repeat("#", n)
}

// Figure5 renders the refetch CDF curves (paper Figure 5).
func Figure5(w io.Writer, curves []harness.Fig5Curve) {
	fmt.Fprintln(w, "FIGURE 5 — Cumulative distribution of refetches vs fraction of remote pages")
	fmt.Fprintln(w, "(CC-NUMA, 32-KB block cache; fft omitted when it has no refetches)")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-10s %14s %14s\n", "app", "refetch@10%pg", "refetch@30%pg")
	for _, c := range curves {
		if len(c.Points) == 0 {
			fmt.Fprintf(w, "%-10s %14s %14s\n", c.App, "(none)", "(none)")
			continue
		}
		fmt.Fprintf(w, "%-10s %13.1f%% %13.1f%%\n", c.App, c.At10, c.At30)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "curves (x: % of remote pages, y: % of refetches covered):")
	for _, c := range curves {
		if len(c.Points) == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-10s", c.App)
		for _, x := range []float64{5, 10, 20, 30, 50, 70, 100} {
			fmt.Fprintf(w, " %3.0f%%@%-3.0f", stats.CDFAt(c.Points, x), x)
		}
		fmt.Fprintln(w)
	}
}

// Table4 renders the block refetch / page replacement characterization
// (paper Table 4).
func Table4(w io.Writer, rows []harness.Table4Row) {
	fmt.Fprintln(w, "TABLE 4 — Characterizing block refetches and page replacements")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-10s | %-18s | %-22s %-22s\n", "", "CC-NUMA", "R-NUMA", "")
	fmt.Fprintf(w, "%-10s | %-18s | %-22s %-22s\n", "app", "RW-page refetches", "refetches (% CC-NUMA)", "replacements (% S-COMA)")
	fmt.Fprintln(w, strings.Repeat("-", 80))
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s | %17.0f%% | %21.0f%% %21.0f%%\n",
			r.App, r.RWPagePct, r.RefetchPct, r.ReplacementPct)
	}
}

// Figure6 renders the base-system execution time comparison (Figure 6).
func Figure6(w io.Writer, rows []harness.Fig6Row) {
	fmt.Fprintln(w, "FIGURE 6 — Execution time normalized to CC-NUMA with an infinite block cache")
	fmt.Fprintln(w, "(CC-NUMA 32-KB block cache; S-COMA 320-KB page cache; R-NUMA 128-B + 320-KB, T=64)")
	fmt.Fprintln(w)
	max := 0.0
	for _, r := range rows {
		for _, v := range []float64{r.CCNUMA, r.SCOMA, r.RNUMA} {
			if v > max {
				max = v
			}
		}
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s CC-NUMA %5.2f %s\n", r.App, r.CCNUMA, bar(r.CCNUMA, max, 40))
		fmt.Fprintf(w, "%-10s S-COMA  %5.2f %s\n", "", r.SCOMA, bar(r.SCOMA, max, 40))
		fmt.Fprintf(w, "%-10s R-NUMA  %5.2f %s\n", "", r.RNUMA, bar(r.RNUMA, max, 40))
	}
	fmt.Fprintln(w)
	worst, best := 0.0, 1e18
	for _, r := range rows {
		if v := r.RNUMAOverBest; v > worst {
			worst = v
		}
		if v := r.RNUMAOverBest; v < best {
			best = v
		}
	}
	fmt.Fprintf(w, "R-NUMA vs best(CC-NUMA, S-COMA): best case %.0f%% faster, worst case %.0f%% slower\n",
		(1-best)*100, (worst-1)*100)
}

// Figure7 renders the cache-size sensitivity study (Figure 7).
func Figure7(w io.Writer, rows []harness.Fig7Row) {
	fmt.Fprintln(w, "FIGURE 7 — Cache-size sensitivity (normalized to infinite block cache)")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-10s %12s %12s %16s %16s %16s\n",
		"app", "CC b=1K", "CC b=32K", "R b=128,p=320K", "R b=32K,p=320K", "R b=128,p=40M")
	fmt.Fprintln(w, strings.Repeat("-", 88))
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %12.2f %12.2f %16.2f %16.2f %16.2f\n",
			r.App, r.CC1K, r.CC32K, r.R128p320K, r.R32Kp320K, r.R128p40M)
	}
}

// Figure8 renders the threshold sensitivity study (Figure 8).
func Figure8(w io.Writer, rows []harness.Fig8Row) {
	fmt.Fprintln(w, "FIGURE 8 — Relocation threshold sensitivity (normalized to T=64)")
	fmt.Fprintln(w)
	ts := harness.Fig8Thresholds
	fmt.Fprintf(w, "%-10s", "app")
	for _, T := range ts {
		fmt.Fprintf(w, " %8s", fmt.Sprintf("T=%d", T))
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, strings.Repeat("-", 10+9*len(ts)))
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s", r.App)
		keys := make([]int, 0, len(r.ByT))
		for k := range r.ByT {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		for _, T := range keys {
			fmt.Fprintf(w, " %8.2f", r.ByT[T])
		}
		fmt.Fprintln(w)
	}
}

// Figure9 renders the page-fault/TLB overhead sensitivity study (Figure 9).
func Figure9(w io.Writer, rows []harness.Fig9Row) {
	fmt.Fprintln(w, "FIGURE 9 — Page-fault and TLB invalidation overhead sensitivity")
	fmt.Fprintln(w, "(SOFT: 10-µs traps, 5-µs software shootdowns; normalized to infinite block cache)")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-10s %10s %14s %10s %14s %14s %14s\n",
		"app", "S-COMA", "S-COMA-SOFT", "R-NUMA", "R-NUMA-SOFT", "SC slowdown", "RN slowdown")
	fmt.Fprintln(w, strings.Repeat("-", 94))
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %10.2f %14.2f %10.2f %14.2f %13.0f%% %13.0f%%\n",
			r.App, r.SCOMA, r.SCOMASoft, r.RNUMA, r.RNUMASoft,
			(r.SCOMASoft/r.SCOMA-1)*100, (r.RNUMASoft/r.RNUMA-1)*100)
	}
}

// Sensitivity renders a generalized one-axis sensitivity sweep: one
// recorded workload transformed along the axis and replayed under the
// three base designs at every point.
func Sensitivity(w io.Writer, name string, axis harness.Axis, points []harness.AxisPoint) {
	fmt.Fprintf(w, "SENSITIVITY — %s swept over %s (one capture, transformed per point)\n", name, axis)
	switch axis {
	case harness.AxisNodes:
		fmt.Fprintln(w, "(normalized to the same-shape ideal machine; pages re-homed round-robin)")
	case harness.AxisDilate:
		fmt.Fprintln(w, "(compute gaps scaled per point: x<1 models faster processors, x>1 slower;")
		fmt.Fprintln(w, " normalized to the same-dilation ideal machine)")
	case harness.AxisBlockSize, harness.AxisPageSize:
		fmt.Fprintln(w, "(geometry retargeted per point; normalized to the same-geometry ideal machine)")
	case harness.AxisThreshold:
		fmt.Fprintln(w, "(capture replayed unchanged; R-NUMA relocation threshold varied per point)")
	}
	fmt.Fprintln(w)
	// The label column sizes to the data: composed grid-variant labels
	// ("b=64B, T=256") and geometry points overflow a fixed pad.
	lw := max(16, len(axis.String()))
	for _, p := range points {
		lw = max(lw, len(p.Label))
	}
	fmt.Fprintf(w, "%-*s %10s %10s %10s %10s\n", lw, axis, "CC-NUMA", "S-COMA", "R-NUMA", "R/best")
	fmt.Fprintln(w, strings.Repeat("-", lw+44))
	for _, p := range points {
		fmt.Fprintf(w, "%-*s %10.2f %10.2f %10.2f %10.2f\n",
			lw, p.Label, p.CCNUMA, p.SCOMA, p.RNUMA, p.RNUMAOverBest())
	}
	fmt.Fprintln(w)
	worst := 0.0
	for _, p := range points {
		if v := p.RNUMAOverBest(); v > worst {
			worst = v
		}
	}
	fmt.Fprintf(w, "worst R-NUMA-vs-best ratio across the %s axis: %.2f\n", axis, worst)
}

// DeltaTable renders a stats.Diff per-counter comparison: every counter
// of the two runs side by side with absolute and relative deltas, then
// the refetch-distribution digest comparison. Unchanged counters print
// only under verbose.
func DeltaTable(w io.Writer, nameA, nameB string, d *stats.RunDelta, verbose bool) {
	fmt.Fprintf(w, "DELTA — %s vs %s (B-A per counter)\n", nameA, nameB)
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-20s %14s %14s %14s %9s\n", "counter", "A", "B", "delta", "rel")
	fmt.Fprintln(w, strings.Repeat("-", 76))
	for _, c := range d.Counters {
		if c.Delta == 0 && !verbose {
			continue
		}
		rel := "-"
		if pct, ok := c.RelPct(); ok {
			rel = fmt.Sprintf("%+.1f%%", pct)
		} else if c.Delta != 0 {
			rel = "new"
		}
		fmt.Fprintf(w, "%-20s %14d %14d %+14d %9s\n", c.Name, c.A, c.B, c.Delta, rel)
	}
	if d.Differing == 0 {
		fmt.Fprintln(w, "(all counters identical)")
	}
	fmt.Fprintln(w)
	refetch := "identical"
	if d.RefetchDigestA != d.RefetchDigestB {
		refetch = fmt.Sprintf("differ (%d pages changed)", d.RefetchPagesDiffering)
	}
	fmt.Fprintf(w, "refetch map: %s vs %s — %s\n", d.RefetchDigestA, d.RefetchDigestB, refetch)
	if d.Identical() {
		fmt.Fprintln(w, "runs are identical")
	} else {
		fmt.Fprintf(w, "runs differ: %d counters changed\n", d.Differing)
	}
}

// Model renders the analytical worst-case model (Table 1, EQ 1-3).
func Model(w io.Writer, p model.Params) {
	fmt.Fprintln(w, "ANALYTICAL MODEL — worst-case competitive ratios (Section 3.2)")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "parameters: Crefetch=%.0f Callocate=%.0f Crelocate=%.0f T=%.0f\n",
		p.Crefetch, p.Callocate, p.Crelocate, p.T)
	fmt.Fprintf(w, "EQ1  R-NUMA/CC-NUMA overhead ratio: %.3f\n", p.RatioVsCCNUMA())
	fmt.Fprintf(w, "EQ2  R-NUMA/S-COMA  overhead ratio: %.3f\n", p.RatioVsSCOMA())
	opt := p.AtOptimum()
	fmt.Fprintf(w, "EQ3  optimal threshold T* = Callocate/Crefetch = %.1f\n", opt.T)
	fmt.Fprintf(w, "     worst-case bound at T* = 2 + Crelocate/Callocate = %.3f\n", opt.BoundAtOptimum())
	fmt.Fprintln(w)
	fmt.Fprintln(w, "threshold sweep (worst-case ratio):")
	for _, pt := range p.SweepThreshold(1, 1024, 11) {
		fmt.Fprintf(w, "  T=%7.1f  vsCC=%7.2f  vsSC=%7.2f  worst=%7.2f %s\n",
			pt.T, pt.VsCCNUMA, pt.VsSCOMA, pt.Worst, bar(pt.Worst, 20, 30))
	}
}

// ClientTable renders the per-tenant counter split of a multi-tenant run
// (a no-op for runs without attribution). The rows sum exactly to the
// machine-level counters, since attribution charges every reference to
// exactly one client.
func ClientTable(w io.Writer, r *stats.Run) {
	if len(r.Clients) == 0 {
		return
	}
	fmt.Fprintln(w, "CLIENTS — per-tenant counter split (rows sum to the machine totals)")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-12s %12s %11s %10s %10s %8s %8s %11s\n",
		"client", "refs", "l1hit", "remote", "refetch", "reloc", "repl", "remote/ref")
	fmt.Fprintln(w, strings.Repeat("-", 88))
	for _, c := range r.Clients {
		ct := c.Counters
		fmt.Fprintf(w, "%-12s %12d %11d %10d %10d %8d %8d %10.2f%%\n",
			c.Name, ct.Refs, ct.L1Hits, ct.RemoteFetches, ct.Refetches,
			ct.Relocations, ct.Replacements, 100*stats.Ratio(ct.RemoteFetches, ct.Refs))
	}
}

// RunSummary renders one run's counters (the body of a replay report).
func RunSummary(w io.Writer, name string, r *stats.Run) {
	fmt.Fprintf(w, "run: %s\n", name)
	fmt.Fprintf(w, "  execution time:        %d cycles\n", r.ExecCycles)
	fmt.Fprintf(w, "  references:            %d\n", r.Refs)
	fmt.Fprintf(w, "  L1 hits:               %d (%.1f%%)\n", r.L1Hits, 100*stats.Ratio(r.L1Hits, r.Refs))
	fmt.Fprintf(w, "  cache-to-cache:        %d\n", r.C2CTransfers)
	fmt.Fprintf(w, "  local fills:           %d\n", r.LocalFills)
	fmt.Fprintf(w, "  block cache hits:      %d\n", r.BlockCacheHits)
	fmt.Fprintf(w, "  page cache hits:       %d\n", r.PageCacheHits)
	fmt.Fprintf(w, "  remote fetches:        %d (%.2f%% of refs)\n", r.RemoteFetches, 100*r.RemoteMissRatio())
	fmt.Fprintf(w, "  refetches:             %d (%.1f%% of remote)\n", r.Refetches, 100*stats.Ratio(r.Refetches, r.RemoteFetches))
	fmt.Fprintf(w, "  upgrades:              %d\n", r.Upgrades)
	fmt.Fprintf(w, "  page faults:           %d\n", r.PageFaults)
	fmt.Fprintf(w, "  page allocations:      %d\n", r.Allocations)
	fmt.Fprintf(w, "  page replacements:     %d\n", r.Replacements)
	fmt.Fprintf(w, "  page relocations:      %d\n", r.Relocations)
	fmt.Fprintf(w, "  blocks flushed:        %d\n", r.FlushedBlocks)
	fmt.Fprintf(w, "  invalidations sent:    %d\n", r.InvalsSent)
	fmt.Fprintf(w, "  three-hop transfers:   %d\n", r.ThreeHopXfers)
	fmt.Fprintf(w, "  writebacks to home:    %d\n", r.WritebacksHome)
	fmt.Fprintf(w, "  distinct remote pages: %d\n", r.RemotePages)
	fmt.Fprintf(w, "  bus wait cycles:       %d\n", r.BusWaitCycles)
	fmt.Fprintf(w, "  NI wait cycles:        %d\n", r.NIWaitCycles)
	fmt.Fprintf(w, "  RAD wait cycles:       %d\n", r.RADWaitCycles)
}
