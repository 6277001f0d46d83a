package harness

import (
	"rnuma/internal/config"
	"rnuma/internal/pagecache"
	"rnuma/internal/stats"
)

// This file implements the ablation studies: each isolates one design
// decision the paper's results rest on.

// runPair runs one application on two systems, planning both runs
// before the first so that they can run concurrently.
func (h *Harness) runPair(appName string, a, b config.System) (ra, rb *stats.Run, err error) {
	h.Prefetch(NewPlan().AddRuns([]string{appName}, a, b))
	if ra, err = h.Run(appName, a); err != nil {
		return nil, nil, err
	}
	rb, err = h.Run(appName, b)
	return ra, rb, err
}

// CountingAblation compares R-NUMA with the paper's refetch-only counters
// against a naive variant whose counters are fed by every remote miss
// (coherence misses included).
type CountingAblation struct {
	App string
	// Execution cycles and relocation counts under each policy.
	RefetchOnly, Naive             *stats.Run
	SlowdownPct                    float64 // naive vs refetch-only execution time
	ExtraRelocations, ExtraReplace int64
}

// AblationCounting demonstrates why Section 3.1 counts only capacity and
// conflict refetches: on a producer-consumer application, naive counting
// relocates communication pages, buying nothing and paying page-operation
// and page-cache-churn costs. It runs at a deliberately low threshold so
// that a communication page's few coherence misses per run are enough to
// cross naively — its refetch count (zero) never is, at any threshold.
func (h *Harness) AblationCounting(appName string) (*CountingAblation, error) {
	sys := config.Base(config.RNUMA)
	sys.Threshold = 6
	sys.Name = "R-NUMA T=6"
	naiveSys := sys
	naiveSys.NaiveCounting = true
	naiveSys.Name = "R-NUMA T=6 naive counting"
	base, naive, err := h.runPair(appName, sys, naiveSys)
	if err != nil {
		return nil, err
	}
	return &CountingAblation{
		App:              appName,
		RefetchOnly:      base,
		Naive:            naive,
		SlowdownPct:      100 * (float64(naive.ExecCycles)/float64(base.ExecCycles) - 1),
		ExtraRelocations: naive.Relocations - base.Relocations,
		ExtraReplace:     naive.Replacements - base.Replacements,
	}, nil
}

// PolicyAblation compares the paper's Least Recently Missed replacement
// against conventional LRU under pure S-COMA.
type PolicyAblation struct {
	App      string
	LRM, LRU *stats.Run
	// LRUEffectPct is the execution-time change from switching to LRU
	// (negative = LRU faster).
	LRUEffectPct float64
}

// AblationReplacementPolicy quantifies the cost of the paper's
// hardware-cheap LRM policy versus LRU, which refreshes frames on hits
// and so protects reuse pages from streaming traffic — at the price of
// per-reference bookkeeping the paper's design avoids (Section 4).
func (h *Harness) AblationReplacementPolicy(appName string) (*PolicyAblation, error) {
	sys := config.Base(config.SCOMA)
	lruSys := sys
	lruSys.PageReplacement = pagecache.LRU
	lruSys.Name = "S-COMA LRU"
	lrm, lru, err := h.runPair(appName, sys, lruSys)
	if err != nil {
		return nil, err
	}
	return &PolicyAblation{
		App:          appName,
		LRM:          lrm,
		LRU:          lru,
		LRUEffectPct: 100 * (float64(lru.ExecCycles)/float64(lrm.ExecCycles) - 1),
	}, nil
}

// PlacementAblation compares first-touch page placement (the paper's
// Section 2.1 policy, realized here through the workloads' explicit home
// maps) against naive round-robin placement.
type PlacementAblation struct {
	App                    string
	FirstTouch, RoundRobin *stats.Run
	SlowdownPct            float64
	RemoteFetchMultiplier  float64
}

// AblationPlacement quantifies how much of every protocol's performance
// rests on good initial placement: with round-robin homes, a node's
// "own" data is scattered across the machine and even private sweeps go
// remote.
func (h *Harness) AblationPlacement(appName string) (*PlacementAblation, error) {
	sys := config.Base(config.CCNUMA)
	rrSys := sys
	rrSys.FirstTouch = false // machine falls back to round-robin homes
	rrSys.Name = "CC-NUMA round-robin placement"
	ft, rr, err := h.runPair(appName, sys, rrSys)
	if err != nil {
		return nil, err
	}
	return &PlacementAblation{
		App:                   appName,
		FirstTouch:            ft,
		RoundRobin:            rr,
		SlowdownPct:           100 * (float64(rr.ExecCycles)/float64(ft.ExecCycles) - 1),
		RemoteFetchMultiplier: stats.Ratio(rr.RemoteFetches, ft.RemoteFetches),
	}, nil
}
