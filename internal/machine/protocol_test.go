package machine

import (
	"testing"

	"rnuma/internal/addr"
	"rnuma/internal/config"
	"rnuma/internal/trace"
)

// TestRelocationPreservesData: a node writes blocks of a remote page,
// triggers relocation, and reads them back; the relocated page cache must
// supply the written versions (verification would fail otherwise), and the
// reads must be local (no remote fetches after relocation).
func TestRelocationPreservesData(t *testing.T) {
	m := newTiny(t, config.RNUMA)
	var refs []trace.Ref
	// Writes so the blocks are dirty, then enough conflict sweeps over
	// pages 0,2,4,6 (32 blocks vs 2-block block cache) to cross T=4.
	for off := 0; off < 8; off++ {
		refs = append(refs, trace.Ref{Page: 0, Off: uint16(off), Write: true})
	}
	for pass := 0; pass < 6; pass++ {
		for _, page := range []addr.PageNum{0, 2, 4, 6} {
			for off := 0; off < 8; off++ {
				refs = append(refs, trace.Ref{Page: page, Off: uint16(off)})
			}
		}
	}
	// Final read-back of the written page.
	for off := 0; off < 8; off++ {
		refs = append(refs, trace.Ref{Page: 0, Off: uint16(off)})
	}
	run, err := m.Run(streams4(map[int][]trace.Ref{2: refs}))
	if err != nil {
		t.Fatal(err) // verification would catch lost writes
	}
	if run.Relocations == 0 {
		t.Fatal("no relocation happened; test premise broken")
	}
	if run.PageCacheHits == 0 {
		t.Error("relocated page never hit the page cache")
	}
}

// TestSCOMAFrameIndexingAvoidsConflicts: the paper says S-COMA's page
// cache is fully associative because pages map anywhere in it. Two pages
// whose global addresses conflict in the direct-mapped L1 stop conflicting
// once S-COMA maps them to adjacent frames — the CPU indexes its cache
// with local physical addresses.
func TestSCOMAFrameIndexingAvoidsConflicts(t *testing.T) {
	// tiny L1: 16 lines; pages 0 and 2 have blocks 0..7 and 16..23, whose
	// global addresses collide in the L1 (16+k & 15 == k).
	ccRefs := func() []trace.Ref {
		var refs []trace.Ref
		for pass := 0; pass < 10; pass++ {
			for _, page := range []addr.PageNum{0, 2} {
				for off := 0; off < 8; off++ {
					refs = append(refs, trace.Ref{Page: page, Off: uint16(off)})
				}
			}
		}
		return refs
	}

	mCC := newTiny(t, config.CCNUMA)
	ccRun, err := mCC.Run(streams4(map[int][]trace.Ref{2: ccRefs()}))
	if err != nil {
		t.Fatal(err)
	}
	mSC := newTiny(t, config.SCOMA)
	scRun, err := mSC.Run(streams4(map[int][]trace.Ref{2: ccRefs()}))
	if err != nil {
		t.Fatal(err)
	}
	// Under CC-NUMA the two pages' blocks alias in the L1, so later
	// passes keep missing; under S-COMA they land in distinct frames and
	// the L1 holds both pages: almost everything L1-hits after the first
	// pass.
	if scRun.L1Hits <= ccRun.L1Hits {
		t.Errorf("S-COMA L1 hits (%d) should exceed CC-NUMA's (%d): frame indexing removes the alias",
			scRun.L1Hits, ccRun.L1Hits)
	}
}

// TestBlockCacheInclusionRW: evicting a read-write block from the block
// cache must invalidate processor-cache copies; a subsequent access goes
// remote (and is a refetch), never serving stale L1 data.
func TestBlockCacheInclusionRW(t *testing.T) {
	m := newTiny(t, config.RNUMA) // 2-frame block cache forces eviction
	refs := []trace.Ref{
		{Page: 0, Off: 0, Write: true}, // RW block in BC frame 0 (block 0)
		{Page: 0, Off: 2, Write: true}, // frame 0 conflict (block 2 & 1 = 0)
		{Page: 0, Off: 0},              // must refetch: L1 copy was invalidated
	}
	run, err := m.Run(streams4(map[int][]trace.Ref{2: refs}))
	if err != nil {
		t.Fatal(err)
	}
	if run.WritebacksHome == 0 {
		t.Error("RW eviction did not write back home")
	}
	if run.Refetches == 0 {
		t.Error("re-access after RW eviction was not a refetch")
	}
	if run.L1Hits != 0 {
		t.Error("stale L1 data served after inclusion eviction")
	}
}

// TestBlockCacheNoInclusionRO: read-only blocks are dropped from the block
// cache silently; processor-cache copies survive and keep hitting.
func TestBlockCacheNoInclusionRO(t *testing.T) {
	m := newTiny(t, config.RNUMA)
	refs := []trace.Ref{
		{Page: 0, Off: 0}, // RO block 0 -> BC frame 0
		{Page: 0, Off: 2}, // conflicts in BC; evicts block 0 silently
		{Page: 0, Off: 0}, // L1 still holds block 0: hit
	}
	run, err := m.Run(streams4(map[int][]trace.Ref{2: refs}))
	if err != nil {
		t.Fatal(err)
	}
	if run.L1Hits != 1 {
		t.Errorf("L1 hits = %d, want 1: RO eviction must not invalidate the L1", run.L1Hits)
	}
	if run.WritebacksHome != 0 {
		t.Error("clean RO eviction wrote back")
	}
}

// TestSoftCostsSlowPageMachinery: the SOFT variant (Figure 9) must slow
// page-fault-heavy runs and leave block-level costs alone.
func TestSoftCostsSlowPageMachinery(t *testing.T) {
	build := func(costs config.Costs) *stats_runtime {
		sys := tinySys(config.SCOMA)
		sys.Costs = costs
		m, err := New(sys, WithHomes(evenOddHomes), WithVerify())
		if err != nil {
			t.Fatal(err)
		}
		var refs []trace.Ref
		// Thrash the 4-frame page cache: 6 pages touched round-robin.
		for pass := 0; pass < 10; pass++ {
			for p := 0; p < 6; p++ {
				refs = append(refs, trace.Ref{Page: addr.PageNum(2 * p), Off: 0})
			}
		}
		run, err := m.Run(streams4(map[int][]trace.Ref{2: refs}))
		if err != nil {
			t.Fatal(err)
		}
		return &stats_runtime{run.ExecCycles, run.Replacements}
	}
	base := build(config.BaseCosts())
	soft := build(config.SoftCosts())
	if soft.repl != base.repl {
		t.Fatalf("replacements differ (%d vs %d); cost change must not alter behavior", soft.repl, base.repl)
	}
	if soft.exec <= base.exec {
		t.Errorf("SOFT run not slower: %d vs %d", soft.exec, base.exec)
	}
}

type stats_runtime struct {
	exec int64
	repl int64
}

// TestNaiveCountingRelocatesCommunicationPages: the ablation switch makes
// coherence misses feed the counters, so a pure producer-consumer page
// relocates (pointlessly); with the paper's refetch-only policy it never
// does.
func TestNaiveCountingRelocatesCommunicationPages(t *testing.T) {
	build := func(naive bool) int64 {
		sys := tinySys(config.RNUMA) // T=4
		sys.NaiveCounting = naive
		m, err := New(sys, WithHomes(evenOddHomes), WithVerify())
		if err != nil {
			t.Fatal(err)
		}
		var prod, cons []trace.Ref
		for i := 0; i < 20; i++ {
			prod = append(prod, trace.Ref{Page: 0, Off: 0, Write: true, Gap: 5000})
			cons = append(cons, trace.Ref{Page: 0, Off: 0, Gap: 5000})
		}
		run, err := m.Run(streams4(map[int][]trace.Ref{0: prod, 2: cons}))
		if err != nil {
			t.Fatal(err)
		}
		return run.Relocations
	}
	if n := build(false); n != 0 {
		t.Errorf("refetch-only counting relocated %d communication pages", n)
	}
	if n := build(true); n == 0 {
		t.Error("naive counting failed to relocate the communication page")
	}
}

// TestThreeHopTransfer: a read of a block another node holds dirty must
// forward from the owner and leave both nodes sharers.
func TestThreeHopTransfer(t *testing.T) {
	m := newTiny(t, config.CCNUMA)
	// Node 1 (cpu 2) writes block (0,0) homed at node 0; later node 0
	// (cpu 0) reads it: a dirty recall. Then node 1 reads it again —
	// still valid in its caches, no traffic.
	writer := []trace.Ref{{Page: 0, Off: 0, Write: true}}
	reader := []trace.Ref{{Page: 0, Off: 0, Gap: 50000}}
	run, err := m.Run(streams4(map[int][]trace.Ref{0: reader, 2: writer}))
	if err != nil {
		t.Fatal(err)
	}
	if run.ThreeHopXfers == 0 {
		t.Error("no owner forward/recall recorded")
	}
}

// TestBounceDamping: when relocated pages are evicted (page cache too
// small), the refetch counter restarts from zero, so replacements are
// bounded by refetches/T rather than tracking S-COMA's per-touch fault
// rate — the mechanism behind Table 4's tiny replacement percentages.
func TestBounceDamping(t *testing.T) {
	m := newTiny(t, config.RNUMA) // 4 frames, T=4
	var refs []trace.Ref
	for pass := 0; pass < 40; pass++ {
		for p := 0; p < 8; p++ { // 8 reuse pages, 4 frames
			for off := 0; off < 8; off++ {
				refs = append(refs, trace.Ref{Page: addr.PageNum(2 * p), Off: uint16(off)})
			}
		}
	}
	run, err := m.Run(streams4(map[int][]trace.Ref{2: refs}))
	if err != nil {
		t.Fatal(err)
	}
	if run.Replacements == 0 || run.Relocations == 0 {
		t.Fatalf("no bouncing: %s", run.Summary())
	}
	T := int64(m.sys.Threshold)
	bound := run.Refetches/T + int64(run.RemotePages)
	if run.Relocations > bound {
		t.Errorf("relocations (%d) exceed refetches/T + pages (%d): counter reset broken",
			run.Relocations, bound)
	}
}
