// Package stats collects the measurements the paper's evaluation reports:
// execution time, block refetches (per node and page), page-cache
// replacements, relocations, remote fetches, and the cumulative refetch
// distribution of Figure 5.
package stats

import (
	"fmt"
	"sort"

	"rnuma/internal/addr"
	"rnuma/internal/dense"
	"rnuma/internal/telemetry"
)

// PageKey identifies a (node, page) pair: refetch counting in the paper is
// per-node, per-page.
type PageKey struct {
	Node addr.NodeID
	Page addr.PageNum
}

// MarshalText renders the key as "node/page", which is what lets a
// map[PageKey]int64 — and therefore a whole Run — marshal to JSON
// (encoding/json requires text-marshalable map keys).
func (k PageKey) MarshalText() ([]byte, error) {
	return []byte(fmt.Sprintf("%d/%d", k.Node, k.Page)), nil
}

// UnmarshalText parses the "node/page" form.
func (k *PageKey) UnmarshalText(text []byte) error {
	var node int32
	var page uint32
	if _, err := fmt.Sscanf(string(text), "%d/%d", &node, &page); err != nil {
		return fmt.Errorf("stats: bad page key %q: %w", text, err)
	}
	k.Node, k.Page = addr.NodeID(node), addr.PageNum(page)
	return nil
}

// Run accumulates every counter a single simulation produces.
type Run struct {
	// ExecCycles is the parallel execution time: the maximum completion
	// time over all processors.
	ExecCycles int64

	// References processed, split by kind of service.
	Refs           int64 // total references issued
	L1Hits         int64
	LocalFills     int64 // fills from node memory (home-local data)
	C2CTransfers   int64 // intra-node cache-to-cache supplies (owned blocks)
	BlockCacheHits int64
	PageCacheHits  int64
	RemoteFetches  int64 // block fetches that crossed the network
	Upgrades       int64 // writes serviced by a permission upgrade (data already held)

	// Refetches are remote fetches for blocks the node previously held and
	// lost to capacity/conflict eviction (never to an invalidation).
	Refetches int64

	// Paging activity.
	PageFaults     int64 // mapping faults (first touch of an unmapped page)
	Allocations    int64 // S-COMA page-cache frame allocations
	Replacements   int64 // S-COMA page-cache victim replacements
	Relocations    int64 // R-NUMA CC->S-COMA page relocations
	Demotions      int64 // always zero: no page returns from S-COMA to CC-NUMA
	FlushedBlocks  int64 // blocks written back during page ops
	TLBShootdowns  int64
	RemotePages    int64 // distinct (node, page) remote pairs touched
	InvalsSent     int64 // directory-initiated invalidations
	ThreeHopXfers  int64 // dirty blocks forwarded from third-party owners
	WritebacksHome int64 // dirty block writebacks that reached the home

	// Contention.
	BusWaitCycles int64
	NIWaitCycles  int64
	RADWaitCycles int64

	// RefetchByPage maps (node, page) to its refetch count, feeding
	// Figure 5 and Table 4.
	RefetchByPage map[PageKey]int64

	// RWRefetches counts refetches attributed to pages that saw both read
	// and write sharing traffic (Table 4, column 2 numerator).
	RWRefetches int64

	// PerNodeReplacements records which nodes performed page replacements
	// (Section 5.5 attributes lu's sensitivity to two overloaded nodes).
	PerNodeReplacements map[addr.NodeID]int64

	// Timeline is the run's time-resolved telemetry capture (interval
	// series, relocation event log, per-window traffic matrices), nil
	// unless the machine ran with a probe attached. It rides on the Run
	// so memoization, snapshots, and fork sweeps carry it alongside the
	// counters it windows; Diff ignores it (non-int64 field).
	Timeline *telemetry.Timeline

	// Clients splits the run's windowed counters per traffic client, in
	// scenario order; nil unless the workload carried attribution. The
	// per-client Counters sum exactly to the machine-level fields they
	// mirror (attribution charges every reference to exactly one client).
	// Diff ignores it (non-int64 field).
	Clients []ClientStats
}

// ClientStats is one traffic client's share of a multi-tenant run.
type ClientStats struct {
	Name     string
	Counters telemetry.Counters
}

// NewRun returns an empty, ready-to-accumulate Run.
func NewRun() *Run {
	return &Run{
		RefetchByPage:       make(map[PageKey]int64),
		PerNodeReplacements: make(map[addr.NodeID]int64),
	}
}

// Clone returns a deep copy of the run (snapshot support): the counter
// maps are copied, so the clone and the original accumulate independently.
func (r *Run) Clone() *Run {
	c := *r
	c.RefetchByPage = make(map[PageKey]int64, len(r.RefetchByPage))
	for k, v := range r.RefetchByPage {
		c.RefetchByPage[k] = v
	}
	c.PerNodeReplacements = make(map[addr.NodeID]int64, len(r.PerNodeReplacements))
	for k, v := range r.PerNodeReplacements {
		c.PerNodeReplacements[k] = v
	}
	c.Timeline = r.Timeline.Clone()
	if r.Clients != nil {
		c.Clients = append([]ClientStats(nil), r.Clients...)
	}
	return &c
}

// AddRefetch records one refetch for the (node, page) pair.
func (r *Run) AddRefetch(n addr.NodeID, p addr.PageNum) {
	r.Refetches++
	r.RefetchByPage[PageKey{n, p}]++
}

// PageCounter is a dense per-(node, page) counter table for hot-path
// accumulation. The simulator knows its node count and page bound up
// front, so indexed increments replace the per-event map hashing that
// RefetchByPage-style accumulation would cost; Materialize converts the
// table into the sparse map form the reports consume.
type PageCounter struct {
	nodes  int
	counts []int64 // page-major: counts[int(page)*nodes + int(node)]
}

// NewPageCounter builds a counter table for `nodes` nodes, pre-sized for
// `pagesHint` pages. The table grows on demand past the hint.
func NewPageCounter(nodes, pagesHint int) *PageCounter {
	if nodes < 1 {
		nodes = 1
	}
	if pagesHint < 0 {
		pagesHint = 0
	}
	return &PageCounter{nodes: nodes, counts: make([]int64, nodes*pagesHint)}
}

// ensure grows the table to cover page p. The length stays a multiple of
// nodes (it starts as one, and dense.Grow doubles or jumps to the need,
// itself a multiple), which Each's index decode relies on.
func (c *PageCounter) ensure(p addr.PageNum) {
	c.counts = dense.Grow(c.counts, (int(p)+1)*c.nodes)
}

// Add accumulates delta for the (node, page) pair.
func (c *PageCounter) Add(n addr.NodeID, p addr.PageNum, delta int64) {
	c.ensure(p)
	c.counts[int(p)*c.nodes+int(n)] += delta
}

// Get returns the pair's current count.
func (c *PageCounter) Get(n addr.NodeID, p addr.PageNum) int64 {
	i := int(p)*c.nodes + int(n)
	if i >= len(c.counts) {
		return 0
	}
	return c.counts[i]
}

// Each calls fn for every pair with a nonzero count, in page-major order.
func (c *PageCounter) Each(fn func(PageKey, int64)) {
	for i, v := range c.counts {
		if v != 0 {
			fn(PageKey{Node: addr.NodeID(i % c.nodes), Page: addr.PageNum(i / c.nodes)}, v)
		}
	}
}

// Total sums every count in the table.
func (c *PageCounter) Total() int64 {
	var t int64
	for _, v := range c.counts {
		t += v
	}
	return t
}

// Materialize copies the nonzero entries into the sparse map form.
func (c *PageCounter) Materialize(into map[PageKey]int64) {
	c.Each(func(k PageKey, v int64) { into[k] = v })
}

// State returns the counter table's raw form (snapshot support): the
// node stride and a copy of the dense page-major count slice.
func (c *PageCounter) State() (nodes int, counts []int64) {
	return c.nodes, append([]int64(nil), c.counts...)
}

// PageCounterFromState rebuilds a counter table from its raw form
// (snapshot restore). The count slice is copied.
func PageCounterFromState(nodes int, counts []int64) (*PageCounter, error) {
	if nodes < 1 {
		return nil, fmt.Errorf("stats: page counter with %d nodes", nodes)
	}
	if len(counts)%nodes != 0 {
		return nil, fmt.Errorf("stats: %d counts not a multiple of %d nodes", len(counts), nodes)
	}
	return &PageCounter{nodes: nodes, counts: append([]int64(nil), counts...)}, nil
}

// TotalPageOps returns allocations+replacements+relocations, the page
// machinery activity R-NUMA's competitive analysis bounds.
func (r *Run) TotalPageOps() int64 { return r.Allocations + r.Replacements + r.Relocations }

// RemoteMissRatio returns remote fetches per reference.
func (r *Run) RemoteMissRatio() float64 {
	if r.Refs == 0 {
		return 0
	}
	return float64(r.RemoteFetches) / float64(r.Refs)
}

// CDFPoint is one point of Figure 5: after including the top PctPages
// percent of remote pages (by refetch count), PctRefetches percent of all
// refetches are covered.
type CDFPoint struct {
	PctPages     float64
	PctRefetches float64
}

// RefetchCDF computes the Figure-5 curve: remote pages sorted by
// descending refetch count, cumulative share of refetches. Pages with zero
// refetches still count toward the page axis, exactly as the paper's
// "percentage of remote pages" axis does; totalRemotePages supplies the
// denominator (pass 0 to use only pages that appear in the refetch map).
func (r *Run) RefetchCDF(totalRemotePages int) []CDFPoint {
	counts := make([]int64, 0, len(r.RefetchByPage))
	var total int64
	for _, c := range r.RefetchByPage {
		counts = append(counts, c)
		total += c
	}
	if total == 0 {
		return nil
	}
	sort.Slice(counts, func(i, j int) bool { return counts[i] > counts[j] })
	denom := len(counts)
	if totalRemotePages > denom {
		denom = totalRemotePages
	}
	pts := make([]CDFPoint, 0, len(counts)+1)
	pts = append(pts, CDFPoint{0, 0})
	var cum int64
	for i, c := range counts {
		cum += c
		pts = append(pts, CDFPoint{
			PctPages:     100 * float64(i+1) / float64(denom),
			PctRefetches: 100 * float64(cum) / float64(total),
		})
	}
	if denom > len(counts) {
		pts = append(pts, CDFPoint{100, 100})
	}
	return pts
}

// CDFAt linearly interpolates the refetch coverage at pctPages percent of
// remote pages. It returns 0 if the curve is empty.
func CDFAt(pts []CDFPoint, pctPages float64) float64 {
	if len(pts) == 0 {
		return 0
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].PctPages >= pctPages {
			p0, p1 := pts[i-1], pts[i]
			if p1.PctPages == p0.PctPages {
				return p1.PctRefetches
			}
			f := (pctPages - p0.PctPages) / (p1.PctPages - p0.PctPages)
			return p0.PctRefetches + f*(p1.PctRefetches-p0.PctRefetches)
		}
	}
	return pts[len(pts)-1].PctRefetches
}

// Normalized returns this run's execution time relative to a baseline.
func (r *Run) Normalized(baseline *Run) float64 {
	if baseline == nil || baseline.ExecCycles == 0 {
		return 0
	}
	return float64(r.ExecCycles) / float64(baseline.ExecCycles)
}

// Summary renders the headline counters in a compact single line.
func (r *Run) Summary() string {
	return fmt.Sprintf(
		"exec=%d refs=%d l1hit=%d bc=%d pc=%d remote=%d refetch=%d faults=%d alloc=%d repl=%d reloc=%d",
		r.ExecCycles, r.Refs, r.L1Hits, r.BlockCacheHits, r.PageCacheHits,
		r.RemoteFetches, r.Refetches, r.PageFaults, r.Allocations, r.Replacements, r.Relocations)
}

// Ratio safely divides two counters, returning 0 when the denominator is 0.
func Ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
