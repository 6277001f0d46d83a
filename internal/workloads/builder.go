package workloads

import (
	"fmt"
	"math/rand"

	"rnuma/internal/addr"
	"rnuma/internal/trace"
)

// builder accumulates per-CPU references and the page-home map while a
// spec builds: Build drives one builder through the access-pattern
// primitives below, then calls finish.
type builder struct {
	cfg  Config
	bpp  int
	refs [][]trace.Ref
	home []addr.NodeID // by page; pages are allocated from 0 up
	rng  *rand.Rand

	// localPages[cpu] are per-CPU private pages used for compute filler.
	localPages [][]addr.PageNum
	localPos   []int
}

// newBuilder starts a builder. seed is the spec's RNG seed; the config's
// Seed (default 0) is XORed in, so identical (config, seed) pairs always
// produce bit-identical streams.
func newBuilder(cfg Config, seed int64) *builder {
	cpus := cfg.Nodes * cfg.CPUsPerNode
	b := &builder{
		cfg:        cfg,
		bpp:        cfg.Geometry.BlocksPerPage(),
		refs:       make([][]trace.Ref, cpus),
		rng:        rand.New(rand.NewSource(seed ^ cfg.Seed)),
		localPages: make([][]addr.PageNum, cpus),
		localPos:   make([]int, cpus),
	}
	for n := addr.NodeID(0); int(n) < cfg.Nodes; n++ {
		for i := 0; i < cfg.CPUsPerNode; i++ {
			b.localPages[b.cpu(n, i)] = b.alloc(n, 2)
		}
	}
	return b
}

// cpu maps (node, local index) to the global CPU id.
func (b *builder) cpu(n addr.NodeID, i int) int { return int(n)*b.cfg.CPUsPerNode + i }

// neighbor returns the node's ring neighbor at distance d (negative d
// counts the other way round the ring).
func (b *builder) neighbor(n addr.NodeID, d int) addr.NodeID {
	nodes := b.cfg.Nodes
	return addr.NodeID(((int(n)+d)%nodes + nodes) % nodes)
}

// alloc reserves n fresh pages homed at the owner.
func (b *builder) alloc(owner addr.NodeID, n int) []addr.PageNum {
	out := make([]addr.PageNum, n)
	for i := range out {
		out[i] = addr.PageNum(len(b.home))
		b.home = append(b.home, owner)
	}
	return out
}

// allocGlobal reserves n pages with round-robin homes (shared structures).
func (b *builder) allocGlobal(n int) []addr.PageNum {
	out := make([]addr.PageNum, n)
	for i := range out {
		out[i] = addr.PageNum(len(b.home))
		b.home = append(b.home, addr.NodeID(i%b.cfg.Nodes))
	}
	return out
}

// barrier appends a global barrier to every CPU (the bulk-synchronous
// phase structure of the SPLASH-2 codes).
func (b *builder) barrier() {
	for c := range b.refs {
		b.refs[c] = append(b.refs[c], trace.BarrierRef())
	}
}

// share partitions a page list among cpus sharers; ci selects the share.
func share(pages []addr.PageNum, ci, cpus int) []addr.PageNum {
	var out []addr.PageNum
	for i := ci; i < len(pages); i += cpus {
		out = append(out, pages[i])
	}
	return out
}

// finish wraps the accumulated references into a Workload.
func (b *builder) finish(name string) *Workload {
	home, nodes := b.home, addr.NodeID(b.cfg.Nodes)
	return FromRefs(name, b.refs, func(p addr.PageNum) addr.NodeID {
		if int(p) < len(home) {
			return home[p]
		}
		return addr.NodeID(p) % nodes
	}, len(home))
}

// offsets picks the blocks one visit touches on a page: count blocks,
// stride apart, from a per-page rotation plus shift, wrapping within the
// page. The rotation spreads different pages' touched blocks across
// direct-mapped cache indices — real data structures are not aligned to
// page boundaries the way naive strided synthetic patterns would be, and
// without it sparse patterns collapse the direct-mapped block cache onto
// a handful of sets.
type offsets struct{ count, stride, shift int }

// dense is the rotated-contiguous pattern: density consecutive blocks,
// at most the page.
func (b *builder) dense(density int) offsets {
	return offsets{count: min(density, b.bpp), stride: 1}
}

// visit appends one visit of page p to a CPU's stream. gap is the compute
// time preceding each reference (the non-memory work of the loop body,
// which also sets the ideal-machine baseline the paper normalizes
// against).
func (b *builder) visit(cpu int, p addr.PageNum, o offsets, write bool, gap int) {
	base := int(uint32(p)*37) + o.shift
	for k := 0; k < o.count; k++ {
		off := (base + k*o.stride) & (b.bpp - 1)
		b.refs[cpu] = append(b.refs[cpu], trace.Ref{Page: p, Off: uint16(off), Write: write, Gap: uint16(gap)})
	}
}

// walk makes each CPU of the node visit pages `repeats` times: its own
// round-robin share of them or, shared, the whole list. A shared walk is
// the pattern of read-mostly structures (trees, cells, scene geometry)
// every processor traverses. Because the MBus protocol supplies no
// cache-to-cache transfers for clean blocks, peer copies do not help, and
// the node-level reuse lands on the RAD — the regime where a working set
// misses the per-CPU L1s but fits the 32-KB block cache.
func (b *builder) walk(n addr.NodeID, pages []addr.PageNum, o offsets, repeats int, shared, write bool, gap int) {
	cpn := b.cfg.CPUsPerNode
	for ci := 0; ci < cpn; ci++ {
		cpu := b.cpu(n, ci)
		first, step := ci, cpn
		if shared {
			first, step = 0, 1
		}
		for r := 0; r < repeats; r++ {
			for i := first; i < len(pages); i += step {
				b.visit(cpu, pages[i], o, write, gap)
			}
		}
	}
}

// scatter visits each CPU's share of the pages, then shuffles the
// references it issued — the irregular access pattern of graph codes
// (em3d), where consecutive references land on unrelated remote pages.
// Under S-COMA's page-granularity cache this is the worst case: residency
// decays per access, not per page visit.
func (b *builder) scatter(n addr.NodeID, pages []addr.PageNum, o offsets, write bool, gap int) {
	cpn := b.cfg.CPUsPerNode
	for ci := 0; ci < cpn; ci++ {
		cpu := b.cpu(n, ci)
		start := len(b.refs[cpu])
		for i := ci; i < len(pages); i += cpn {
			b.visit(cpu, pages[i], o, write, gap)
		}
		mine := b.refs[cpu][start:]
		b.rng.Shuffle(len(mine), func(i, j int) { mine[i], mine[j] = mine[j], mine[i] })
	}
}

// popular makes each CPU of the node visit `picks` pages drawn by the
// sampler (an index into pages) — the weighted-popularity pattern behind
// skewed reuse sets: a few hot pages absorb most of the traffic and cross
// R-NUMA's relocation threshold while the long tail never does. Draws
// consume the builder's RNG through the sampler, so identical (config,
// seed) pairs still produce bit-identical streams.
func (b *builder) popular(n addr.NodeID, pages []addr.PageNum, sample func() int, picks int, o offsets, write bool, gap int) {
	if len(pages) == 0 {
		return
	}
	for ci := 0; ci < b.cfg.CPUsPerNode; ci++ {
		cpu := b.cpu(n, ci)
		for k := 0; k < picks; k++ {
			b.visit(cpu, pages[sample()%len(pages)], o, write, gap)
		}
	}
}

// zipfSampler returns a deterministic Zipf-distributed index sampler over
// [0, n): index 0 is the most popular, with rank weights proportional to
// 1/(rank+1)^theta. theta must be > 1 (math/rand's Zipf domain), which
// Validate checks.
func (b *builder) zipfSampler(theta float64, n int) func() int {
	if n < 1 {
		return func() int { return 0 }
	}
	z := rand.NewZipf(b.rng, theta, 1, uint64(n-1))
	if z == nil {
		panic(fmt.Sprintf("workloads: zipfSampler needs theta > 1, got %v", theta))
	}
	return func() int { return int(z.Uint64()) }
}

// weightedSampler returns a deterministic index sampler over [0, n) with
// explicit relative weights, cycled when n exceeds len(weights) (so a
// short weight vector describes a repeating popularity texture over a
// machine-sized selection). Weights must be positive.
func (b *builder) weightedSampler(weights []float64, n int) func() int {
	if n < 1 || len(weights) == 0 {
		return func() int { return 0 }
	}
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += weights[i%len(weights)]
		cum[i] = total
	}
	return func() int {
		x := b.rng.Float64() * total
		lo, hi := 0, n-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid] <= x {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}
}

// localCompute adds per-CPU private-page references: a small footprint
// that L1-hits after warmup, modeling the compute the paper's applications
// do between shared references.
func (b *builder) localCompute(n addr.NodeID, refsPerCPU, gap int) {
	for ci := 0; ci < b.cfg.CPUsPerNode; ci++ {
		cpu := b.cpu(n, ci)
		pages := b.localPages[cpu]
		for k := 0; k < refsPerCPU; k++ {
			pos := b.localPos[cpu]
			b.localPos[cpu]++
			p := pages[pos/16%len(pages)]
			off := pos % 16
			b.refs[cpu] = append(b.refs[cpu], trace.Ref{Page: p, Off: uint16(off), Write: pos%4 == 0, Gap: uint16(gap)})
		}
	}
}
