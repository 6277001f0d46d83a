// Package workloads implements synthetic equivalents of the ten
// applications in the paper's Table 3 (eight SPLASH-2 programs plus em3d
// and moldyn).
//
// The paper drives its evaluation with execution-driven simulation of the
// real binaries; reproducing that would require a SPARC ISA simulator and
// the original sources. Instead, each generator here reproduces the
// *memory-system characteristics the paper's analysis attributes the
// results to* — remote working-set size relative to the block and page
// caches, the reuse/communication page split (Section 3), read-write
// sharing fractions (Table 4), page density (sparse pages thrash the page
// cache, Section 2.2), and per-node load imbalance (lu, Section 5.5). The
// per-application constants are documented with the paper passage they
// encode.
//
// The Builder type and its access-pattern primitives (Sweep, Scatter,
// Windowed, ...) are exported so other packages — notably internal/spec's
// declarative workload descriptions — can compose the same primitives
// without a code change here.
package workloads

import (
	"fmt"
	"math/rand"

	"rnuma/internal/addr"
	"rnuma/internal/trace"
)

// Config sizes a workload for a machine.
type Config struct {
	Nodes       int
	CPUsPerNode int
	Geometry    addr.Geometry

	// Scale multiplies iteration counts (never footprints: footprints
	// determine cache fit, the heart of every result). Scale 1.0 is the
	// evaluation size; tests use smaller values. Values <= 0 mean 1.0.
	Scale float64

	// Seed perturbs the generators' RNG streams. The default 0 keeps each
	// generator's fixed built-in seed, so workloads — and therefore
	// recorded traces — are bit-reproducible across runs by default. A
	// nonzero value is XORed into the built-in seed, producing a
	// different but equally reproducible variant.
	Seed int64
}

// DefaultConfig is the paper's 8-node, 4-CPU base machine.
func DefaultConfig() Config {
	return Config{Nodes: 8, CPUsPerNode: 4, Geometry: addr.Default, Scale: 1.0}
}

// Iters scales an iteration count by the config's Scale (minimum 2, so
// every workload keeps its steady-state structure at test scales).
func (c Config) Iters(n int) int {
	s := c.Scale
	if s <= 0 {
		s = 1
	}
	v := int(float64(n)*s + 0.5)
	if v < 2 {
		v = 2
	}
	return v
}

func (c Config) iters(n int) int { return c.Iters(n) }

// Workload is a fully generated run: one stream per CPU plus page homes.
type Workload struct {
	Name        string
	Description string
	PaperInput  string // Table 3's input column
	Streams     []trace.Stream
	Homes       func(addr.PageNum) addr.NodeID
	SharedPages int // total pages in the shared segment

	// Check, if non-nil, reports whether the streams were delivered
	// intact; replayed traces use it to surface I/O or decode errors that
	// a trace.Stream (which cannot return an error) would otherwise
	// silently truncate into a shorter run.
	Check func() error

	// Attribution, if non-nil, maps every record back to the traffic
	// client that issued it (compiled multi-tenant scenarios); the
	// machine splits the run's counters per client when it is present.
	Attribution *trace.Attribution

	// refs are the per-CPU references behind Streams (nil for workloads
	// neither built by a Builder nor made by FromRefs).
	refs [][]trace.Ref
}

// Fresh returns a copy of a Builder-made (or FromRefs) workload whose
// streams are new cursors at the start of the reference slices. One build
// can then drive any number of simulations, concurrently too: the slices
// and the home map are only ever read. Every catalog application is
// Builder-made; Fresh panics on a workload that is not.
func (w *Workload) Fresh() *Workload {
	if w.refs == nil {
		panic(fmt.Sprintf("workloads: Fresh on %q, which no Builder made", w.Name))
	}
	cp := *w
	cp.Streams = make([]trace.Stream, len(w.refs))
	for i, r := range w.refs {
		cp.Streams[i] = trace.FromSlice(r)
	}
	return &cp
}

// FromRefs wraps per-CPU reference slices — a decoded trace, say — as a
// workload that Fresh replays like a Builder-made one. The slices are
// only ever read.
func FromRefs(name string, refs [][]trace.Ref, homes func(addr.PageNum) addr.NodeID, sharedPages int) *Workload {
	w := &Workload{Name: name, Homes: homes, SharedPages: sharedPages, refs: refs}
	return w.Fresh()
}

// ResolveHomes materializes the workload's home function into a dense
// per-page slice covering the shared segment (trace recording needs the
// placement as data, not code).
func (w *Workload) ResolveHomes() []addr.NodeID {
	out := make([]addr.NodeID, w.SharedPages)
	for p := range out {
		out[p] = w.Homes(addr.PageNum(p))
	}
	return out
}

// App is a workload generator.
type App struct {
	Name        string
	Description string
	PaperInput  string
	Build       func(Config) *Workload
}

// Catalog returns the ten applications in Table 3's order.
func Catalog() []App {
	return []App{
		{"barnes", "Barnes-Hut N-body simulation: hot shared tree + large exchanged body set", "16K particles", Barnes},
		{"cholesky", "Blocked sparse Cholesky factorization: reuse panels nearly fitting the page cache", "tk16.O", Cholesky},
		{"em3d", "3-D electromagnetic wave propagation: producer-consumer halo exchange", "76800 nodes, 15% remote, 5 iters", EM3D},
		{"fft", "Complex 1-D radix-sqrt(n) six-step FFT: strided all-to-all transpose", "64K points", FFT},
		{"fmm", "Fast Multipole N-body: sparse reuse set larger than the page cache", "16K particles", FMM},
		{"lu", "Blocked dense LU factorization: reuse pages with node load imbalance", "512x512 matrix, 16x16 blocks", LU},
		{"moldyn", "Molecular dynamics: neighbor reuse set fitting the page cache", "2048 particles, 15 iters", Moldyn},
		{"ocean", "Ocean simulation: huge remote working set missing in every cache", "258x258 ocean", Ocean},
		{"radix", "Integer radix sort: all-to-all permutation, evenly spread refetches", "1M integers, radix 1024", Radix},
		{"raytrace", "3-D scene rendering: read-only scene streamed, hot read-only core", "car", Raytrace},
	}
}

// Extensions returns workloads beyond the paper's Table 3: scenarios
// built to exercise this implementation's extension features.
func Extensions() []App {
	return []App{
		{"phaseshift", "Extension: a reuse set becomes a communication set mid-run (reverse adaptation)", "(extension workload)", PhaseShift},
	}
}

// ByName finds an application by name, searching the Table 3 catalog and
// the extension workloads.
func ByName(name string) (App, bool) {
	for _, a := range Catalog() {
		if a.Name == name {
			return a, true
		}
	}
	for _, a := range Extensions() {
		if a.Name == name {
			return a, true
		}
	}
	return App{}, false
}

// Names lists the catalog's application names in order.
func Names() []string {
	apps := Catalog()
	out := make([]string, len(apps))
	for i, a := range apps {
		out[i] = a.Name
	}
	return out
}

// Builder accumulates per-CPU references and the page-home map. Each
// generator (and each spec-built workload) drives one Builder through the
// access-pattern primitives below, then calls Finish.
type Builder struct {
	cfg  Config
	g    addr.Geometry
	bpp  int
	refs [][]trace.Ref
	home map[addr.PageNum]addr.NodeID
	next addr.PageNum
	rng  *rand.Rand

	// localPages[cpu] are per-CPU private pages used for compute filler.
	localPages [][]addr.PageNum
	localPos   []int

	// rot is RotContig's reusable result buffer; builders call RotContig
	// once per page visit, so the scratch keeps trace generation from
	// allocating per page.
	rot []int
}

// NewBuilder starts a builder. seed is the generator's built-in RNG seed;
// the config's Seed (default 0) is XORed in, so identical (config, seed)
// pairs always produce bit-identical streams.
func NewBuilder(cfg Config, seed int64) *Builder {
	cpus := cfg.Nodes * cfg.CPUsPerNode
	b := &Builder{
		cfg:        cfg,
		g:          cfg.Geometry,
		bpp:        cfg.Geometry.BlocksPerPage(),
		refs:       make([][]trace.Ref, cpus),
		home:       make(map[addr.PageNum]addr.NodeID),
		rng:        rand.New(rand.NewSource(seed ^ cfg.Seed)),
		localPages: make([][]addr.PageNum, cpus),
		localPos:   make([]int, cpus),
	}
	for n := addr.NodeID(0); int(n) < cfg.Nodes; n++ {
		for i := 0; i < cfg.CPUsPerNode; i++ {
			b.localPages[b.CPU(n, i)] = b.Alloc(n, 2)
		}
	}
	return b
}

// Config returns the sizing configuration the builder was started with.
func (b *Builder) Config() Config { return b.cfg }

// BlocksPerPage returns the geometry's blocks-per-page count (the maximum
// per-page density).
func (b *Builder) BlocksPerPage() int { return b.bpp }

// Rand exposes the builder's deterministic RNG (shuffles, sampling).
func (b *Builder) Rand() *rand.Rand { return b.rng }

// CPU maps (node, local index) to the global CPU id.
func (b *Builder) CPU(n addr.NodeID, i int) int { return int(n)*b.cfg.CPUsPerNode + i }

// Alloc reserves n fresh pages homed at the owner.
func (b *Builder) Alloc(owner addr.NodeID, n int) []addr.PageNum {
	out := make([]addr.PageNum, n)
	for i := range out {
		out[i] = b.next
		b.home[b.next] = owner
		b.next++
	}
	return out
}

// AllocGlobal reserves n pages with round-robin homes (shared structures).
func (b *Builder) AllocGlobal(n int) []addr.PageNum {
	out := make([]addr.PageNum, n)
	for i := range out {
		out[i] = b.next
		b.home[b.next] = addr.NodeID(i % b.cfg.Nodes)
		b.next++
	}
	return out
}

// Push appends a reference to a CPU's stream.
func (b *Builder) Push(cpu int, r trace.Ref) { b.refs[cpu] = append(b.refs[cpu], r) }

// Barrier appends a global barrier to every CPU (the bulk-synchronous
// phase structure of the SPLASH-2 codes).
func (b *Builder) Barrier() {
	for c := range b.refs {
		b.refs[c] = append(b.refs[c], trace.BarrierRef())
	}
}

// Share partitions a page list among the node's CPUs; ci selects the share.
func Share(pages []addr.PageNum, ci, cpus int) []addr.PageNum {
	var out []addr.PageNum
	for i := ci; i < len(pages); i += cpus {
		out = append(out, pages[i])
	}
	return out
}

// Finish wraps the accumulated references into a Workload.
func (b *Builder) Finish(name, desc, input string) *Workload {
	streams := make([]trace.Stream, len(b.refs))
	for i, r := range b.refs {
		streams[i] = trace.FromSlice(r)
	}
	home := b.home
	nodes := addr.NodeID(b.cfg.Nodes)
	return &Workload{
		Name:        name,
		Description: desc,
		PaperInput:  input,
		Streams:     streams,
		Homes: func(p addr.PageNum) addr.NodeID {
			if h, ok := home[p]; ok {
				return h
			}
			return addr.NodeID(p) % nodes
		},
		SharedPages: int(b.next),
		refs:        b.refs,
	}
}

// RotContig returns `count` contiguous block offsets within a page,
// starting at a per-page rotation. The rotation spreads different pages'
// touched blocks across direct-mapped cache indices — real data structures
// are not aligned to page boundaries the way naive strided synthetic
// patterns would be, and without it sparse patterns collapse the
// direct-mapped block cache onto a handful of sets.
//
// The returned slice is builder-owned scratch, valid until the next
// RotContig call: consume it before requesting another page's offsets.
func (b *Builder) RotContig(p addr.PageNum, count int) []int {
	if count > b.bpp {
		count = b.bpp
	}
	if cap(b.rot) < count {
		b.rot = make([]int, count)
	}
	out := b.rot[:count]
	base := int(uint32(p)*37) & (b.bpp - 1)
	for j := 0; j < count; j++ {
		out[j] = (base + j) & (b.bpp - 1)
	}
	return out
}

// Sweep makes each CPU of the node walk its share of the pages `repeats`
// times, touching `density` rotated-contiguous blocks per page. gap is the
// compute time preceding each reference (the non-memory work of the loop
// body, which also sets the ideal-machine baseline the paper normalizes
// against).
func (b *Builder) Sweep(n addr.NodeID, pages []addr.PageNum, density, repeats int, write bool, gap int) {
	for ci := 0; ci < b.cfg.CPUsPerNode; ci++ {
		cpu := b.CPU(n, ci)
		mine := Share(pages, ci, b.cfg.CPUsPerNode)
		for r := 0; r < repeats; r++ {
			for _, p := range mine {
				for _, off := range b.RotContig(p, density) {
					b.Push(cpu, trace.Ref{Page: p, Off: uint16(off), Write: write, Gap: uint16(gap)})
				}
			}
		}
	}
}

// SweepShared makes EVERY CPU of the node walk the full page list (no
// partitioning): the pattern of shared read-mostly structures (trees,
// cells, scene geometry) that all processors traverse. Because the MBus
// protocol supplies no cache-to-cache transfers for clean blocks, peer
// copies do not help, and the node-level reuse lands on the RAD — the
// regime where a working set misses the per-CPU L1s but fits the 32-KB
// block cache.
func (b *Builder) SweepShared(n addr.NodeID, pages []addr.PageNum, density, repeats int, write bool, gap int) {
	for ci := 0; ci < b.cfg.CPUsPerNode; ci++ {
		cpu := b.CPU(n, ci)
		for r := 0; r < repeats; r++ {
			for _, p := range pages {
				for _, off := range b.RotContig(p, density) {
					b.Push(cpu, trace.Ref{Page: p, Off: uint16(off), Write: write, Gap: uint16(gap)})
				}
			}
		}
	}
}

// SweepOffsets is Sweep with an explicit per-page offset function
// (strided and sliced patterns).
func (b *Builder) SweepOffsets(n addr.NodeID, pages []addr.PageNum, offsFor func(addr.PageNum) []int, write bool, gap int) {
	for ci := 0; ci < b.cfg.CPUsPerNode; ci++ {
		cpu := b.CPU(n, ci)
		for _, p := range Share(pages, ci, b.cfg.CPUsPerNode) {
			for _, off := range offsFor(p) {
				b.Push(cpu, trace.Ref{Page: p, Off: uint16(off), Write: write, Gap: uint16(gap)})
			}
		}
	}
}

// Scatter touches `density` rotated blocks of each page in a globally
// shuffled order — the irregular access pattern of graph codes (em3d),
// where consecutive references land on unrelated remote pages. Under
// S-COMA's page-granularity cache this is the worst case: residency decays
// per access, not per page visit.
func (b *Builder) Scatter(n addr.NodeID, pages []addr.PageNum, density int, write bool, gap int) {
	type po struct {
		p   addr.PageNum
		off int
	}
	for ci := 0; ci < b.cfg.CPUsPerNode; ci++ {
		cpu := b.CPU(n, ci)
		var refs []po
		for _, p := range Share(pages, ci, b.cfg.CPUsPerNode) {
			for _, off := range b.RotContig(p, density) {
				refs = append(refs, po{p, off})
			}
		}
		b.rng.Shuffle(len(refs), func(i, j int) { refs[i], refs[j] = refs[j], refs[i] })
		for _, r := range refs {
			b.Push(cpu, trace.Ref{Page: r.p, Off: uint16(r.off), Write: write, Gap: uint16(gap)})
		}
	}
}

// Windowed visits pages in windows, with every CPU of the node sweeping
// each full window `sweeps` times at per-page offsets before moving on
// (the marching access pattern of radix and fmm: the active window fits
// the block cache, but the page count per window overflows the page
// cache, and all CPUs work the same window).
func (b *Builder) Windowed(n addr.NodeID, pages []addr.PageNum, offsFor func(addr.PageNum) []int, window, sweeps int, write bool, gap int) {
	for w := 0; w < len(pages); w += window {
		end := w + window
		if end > len(pages) {
			end = len(pages)
		}
		win := pages[w:end]
		for ci := 0; ci < b.cfg.CPUsPerNode; ci++ {
			cpu := b.CPU(n, ci)
			for s := 0; s < sweeps; s++ {
				for _, p := range win {
					for _, off := range offsFor(p) {
						b.Push(cpu, trace.Ref{Page: p, Off: uint16(off), Write: write, Gap: uint16(gap)})
					}
				}
			}
		}
	}
}

// Popular makes each CPU of the node issue `picks` references whose pages
// are drawn by the sampler (an index into pages) — the weighted-popularity
// pattern behind skewed reuse sets: a few hot pages absorb most of the
// traffic and cross R-NUMA's relocation threshold while the long tail
// never does. Each draw touches `density` rotated-contiguous blocks.
// Draws consume the builder's RNG through the sampler, so identical
// (config, seed) pairs still produce bit-identical streams.
func (b *Builder) Popular(n addr.NodeID, pages []addr.PageNum, sample func() int, picks, density int, write bool, gap int) {
	if len(pages) == 0 {
		return
	}
	for ci := 0; ci < b.cfg.CPUsPerNode; ci++ {
		cpu := b.CPU(n, ci)
		for k := 0; k < picks; k++ {
			p := pages[sample()%len(pages)]
			for _, off := range b.RotContig(p, density) {
				b.Push(cpu, trace.Ref{Page: p, Off: uint16(off), Write: write, Gap: uint16(gap)})
			}
		}
	}
}

// ZipfSampler returns a deterministic Zipf-distributed index sampler over
// [0, n): index 0 is the most popular, with rank weights proportional to
// 1/(rank+1)^theta. theta must be > 1 (math/rand's Zipf domain); callers
// with untrusted input validate first, as internal/spec does.
func (b *Builder) ZipfSampler(theta float64, n int) func() int {
	if n < 1 {
		return func() int { return 0 }
	}
	z := rand.NewZipf(b.rng, theta, 1, uint64(n-1))
	if z == nil {
		panic(fmt.Sprintf("workloads: ZipfSampler needs theta > 1, got %v", theta))
	}
	return func() int { return int(z.Uint64()) }
}

// WeightedSampler returns a deterministic index sampler over [0, n) with
// explicit relative weights, cycled when n exceeds len(weights) (so a
// short weight vector describes a repeating popularity texture over a
// machine-sized selection). Weights must be positive.
func (b *Builder) WeightedSampler(weights []float64, n int) func() int {
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

// Rewrite makes the owner dirty `blocks` rotated-contiguous blocks of each
// of its pages. The rotation base matches Sweep's, so the dirtied blocks
// overlap what consumers read: their copies are invalidated, and their
// next misses are coherence misses, not refetches.
func (b *Builder) Rewrite(n addr.NodeID, pages []addr.PageNum, blocks, gap int) {
	b.Sweep(n, pages, blocks, 1, true, gap)
}

// LocalCompute adds per-CPU private-page references: a small footprint
// that L1-hits after warmup, modeling the compute the paper's applications
// do between shared references.
func (b *Builder) LocalCompute(n addr.NodeID, refsPerCPU, gap int) {
	for ci := 0; ci < b.cfg.CPUsPerNode; ci++ {
		cpu := b.CPU(n, ci)
		pages := b.localPages[cpu]
		for k := 0; k < refsPerCPU; k++ {
			pos := b.localPos[cpu]
			b.localPos[cpu]++
			p := pages[pos/16%len(pages)]
			off := pos % 16
			b.Push(cpu, trace.Ref{Page: p, Off: uint16(off), Write: pos%4 == 0, Gap: uint16(gap)})
		}
	}
}

// Neighbor returns the node's ring neighbor at distance d.
func (b *Builder) Neighbor(n addr.NodeID, d int) addr.NodeID {
	return addr.NodeID((int(n) + d) % b.cfg.Nodes)
}

// validate panics on malformed configs; builders call it first.
func (c Config) validate() {
	if c.Nodes < 1 || c.CPUsPerNode < 1 {
		panic(fmt.Sprintf("workloads: bad config %+v", c))
	}
}

// Validate reports malformed configs without panicking (spec building and
// CLI paths prefer an error).
func (c Config) Validate() error {
	if c.Nodes < 1 || c.CPUsPerNode < 1 {
		return fmt.Errorf("workloads: config needs at least 1 node and 1 CPU/node, got %dx%d", c.Nodes, c.CPUsPerNode)
	}
	return nil
}
