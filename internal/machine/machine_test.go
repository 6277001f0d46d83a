package machine

import (
	"testing"

	"rnuma/internal/addr"
	"rnuma/internal/config"
	"rnuma/internal/trace"
)

// tinySys builds a small 2-node, 2-CPU machine with 256-byte pages
// (8 blocks/page) so page machinery is cheap to exercise.
func tinySys(p config.Protocol) config.System {
	s := config.System{
		Name:     "test-" + p.String(),
		Protocol: p,
		Geometry: addr.Geometry{BlockShift: 5, PageShift: 8},
		Costs:    config.BaseCosts(),
		Nodes:    2, CPUsPerNode: 2,
		L1Bytes:   512, // 16 lines
		Threshold: 4,
	}
	switch p {
	case config.CCNUMA:
		s.BlockCacheBytes = 256 // 8 blocks
	case config.SCOMA:
		s.PageCacheBytes = 1024 // 4 frames
	case config.RNUMA:
		s.BlockCacheBytes = 64 // 2 blocks
		s.PageCacheBytes = 1024
	}
	return s
}

// evenOddHomes places even pages on node 0 and odd pages on node 1.
func evenOddHomes(p addr.PageNum) addr.NodeID { return addr.NodeID(p % 2) }

// newTiny builds a verified machine or fails the test.
func newTiny(t *testing.T, p config.Protocol) *Machine {
	t.Helper()
	m, err := New(tinySys(p), WithHomes(evenOddHomes), WithVerify())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// streams4 builds one stream per CPU of the tiny machine; unspecified CPUs
// idle.
func streams4(perCPU map[int][]trace.Ref) []trace.Stream {
	out := make([]trace.Stream, 4)
	for i := range out {
		out[i] = trace.FromSlice(perCPU[i])
	}
	return out
}

func TestLocalAccessesStayLocal(t *testing.T) {
	m := newTiny(t, config.CCNUMA)
	// CPU 0 (node 0) touches even pages only: all local. The footprint
	// (page 0's 8 blocks, filling distinct lines of the 16-line L1)
	// reuses, so later passes hit in the L1.
	var refs []trace.Ref
	for i := 0; i < 50; i++ {
		refs = append(refs, trace.Ref{Page: 0, Off: uint16(i % 8), Write: i%3 == 0})
	}
	run, err := m.Run(streams4(map[int][]trace.Ref{0: refs}))
	if err != nil {
		t.Fatal(err)
	}
	if run.RemoteFetches != 0 || run.PageFaults != 0 {
		t.Errorf("local workload went remote: %s", run.Summary())
	}
	if run.LocalFills == 0 {
		t.Error("no local fills recorded")
	}
	if run.L1Hits == 0 {
		t.Error("no L1 hits recorded")
	}
	if run.Refs != 50 {
		t.Errorf("refs = %d, want 50", run.Refs)
	}
}

func TestCCNUMARemoteFlow(t *testing.T) {
	m := newTiny(t, config.CCNUMA)
	// CPU 2 (node 1) reads a block homed at node 0 three times: first is
	// a page fault + remote fetch, the rest are L1 hits.
	refs := []trace.Ref{
		{Page: 0, Off: 0}, {Page: 0, Off: 0}, {Page: 0, Off: 0},
	}
	run, err := m.Run(streams4(map[int][]trace.Ref{2: refs}))
	if err != nil {
		t.Fatal(err)
	}
	if run.PageFaults != 1 {
		t.Errorf("page faults = %d, want 1", run.PageFaults)
	}
	if run.RemoteFetches != 1 {
		t.Errorf("remote fetches = %d, want 1", run.RemoteFetches)
	}
	if run.L1Hits != 2 {
		t.Errorf("L1 hits = %d, want 2", run.L1Hits)
	}
	if run.Refetches != 0 {
		t.Errorf("refetches = %d, want 0 (cold misses only)", run.Refetches)
	}
	// Execution time covers the trap plus the remote fetch.
	min := m.costs.SoftTrap + m.costs.RemoteFetch
	if run.ExecCycles < min {
		t.Errorf("exec = %d, want >= %d", run.ExecCycles, min)
	}
}

func TestBlockCacheServesAfterL1Eviction(t *testing.T) {
	m := newTiny(t, config.CCNUMA)
	// Node 1 reads block (1,0)... wait: page 1 is homed at node 1; use
	// page 0 (home node 0). Read block 0, then walk 16 conflicting blocks
	// to evict it from the 16-line L1, then re-read: the block cache
	// (8 blocks, holding block 0) should serve without a remote fetch...
	// but 16 distinct blocks also churn the block cache. Instead, use a
	// block cache-sized working set: read blocks 0..7 of page 0, then
	// conflicting L1 sets via pages 2,4 blocks that map to the same L1
	// lines but different BC frames is impossible with a direct-mapped BC
	// of 8 frames. Keep it simple: refetch detection is the subject of
	// the next test; here just verify a BC hit happens when the same
	// block is re-read by the *other* CPU of the node (cold L1, warm BC,
	// clean data so no cache-to-cache supply).
	refsA := []trace.Ref{{Page: 0, Off: 3}}
	refsB := []trace.Ref{{Page: 0, Off: 3, Gap: 60000}}
	run, err := m.Run(streams4(map[int][]trace.Ref{2: refsA, 3: refsB}))
	if err != nil {
		t.Fatal(err)
	}
	if run.RemoteFetches != 1 {
		t.Errorf("remote fetches = %d, want 1", run.RemoteFetches)
	}
	if run.BlockCacheHits != 1 {
		t.Errorf("block cache hits = %d, want 1", run.BlockCacheHits)
	}
}

func TestRefetchDetection(t *testing.T) {
	m := newTiny(t, config.CCNUMA)
	// Node 1's L1 has 16 lines and its BC 8 frames. Sweeping 32 remote
	// blocks (pages 0,2,4,6 = 8 blocks each) repeatedly forces capacity
	// refetches after the first pass.
	var sweep []trace.Ref
	for pass := 0; pass < 3; pass++ {
		for _, page := range []addr.PageNum{0, 2, 4, 6} {
			for off := 0; off < 8; off++ {
				sweep = append(sweep, trace.Ref{Page: page, Off: uint16(off)})
			}
		}
	}
	run, err := m.Run(streams4(map[int][]trace.Ref{2: sweep}))
	if err != nil {
		t.Fatal(err)
	}
	if run.Refetches == 0 {
		t.Fatalf("sweep produced no refetches: %s", run.Summary())
	}
	// Passes 2 and 3 are almost all refetches: 64 misses, minus any BC
	// hits. Cold pass: 32 fetches, 0 refetches.
	if run.Refetches < 32 {
		t.Errorf("refetches = %d, want >= 32 (two warm passes)", run.Refetches)
	}
	if got := len(run.RefetchByPage); got != 4 {
		t.Errorf("refetching (node,page) pairs = %d, want 4", got)
	}
}

func TestSCOMAPageCacheHitsAfterCold(t *testing.T) {
	m := newTiny(t, config.SCOMA)
	// Node 1 sweeps 3 remote pages (24 blocks) twice. The 24 blocks
	// conflict in the 16-line L1 (page-cache frames give contiguous local
	// addresses), but the 4-frame page cache holds all 3 pages, so second
	// pass misses are page-cache hits with no remote traffic.
	var refs []trace.Ref
	for pass := 0; pass < 2; pass++ {
		for _, page := range []addr.PageNum{0, 2, 4} {
			for off := 0; off < 8; off++ {
				refs = append(refs, trace.Ref{Page: page, Off: uint16(off)})
			}
		}
	}
	run, err := m.Run(streams4(map[int][]trace.Ref{2: refs}))
	if err != nil {
		t.Fatal(err)
	}
	if run.RemoteFetches != 24 {
		t.Errorf("remote fetches = %d, want 24 (cold only)", run.RemoteFetches)
	}
	if run.Allocations != 3 || run.Replacements != 0 {
		t.Errorf("alloc/repl = %d/%d, want 3/0", run.Allocations, run.Replacements)
	}
	if run.PageCacheHits == 0 {
		t.Error("second pass produced no page cache hits")
	}
}

func TestSCOMAThrashesWhenOverCommitted(t *testing.T) {
	m := newTiny(t, config.SCOMA)
	// 6 remote pages into a 4-frame page cache, swept twice in order:
	// LRM evicts exactly the page about to be needed (sequential thrash).
	var refs []trace.Ref
	for pass := 0; pass < 2; pass++ {
		for p := 0; p < 6; p++ {
			refs = append(refs, trace.Ref{Page: addr.PageNum(2 * p), Off: 0})
		}
	}
	run, err := m.Run(streams4(map[int][]trace.Ref{2: refs}))
	if err != nil {
		t.Fatal(err)
	}
	if run.Replacements == 0 {
		t.Fatalf("over-committed page cache did not replace: %s", run.Summary())
	}
	if run.PageFaults < 8 {
		t.Errorf("page faults = %d, want >= 8 (6 cold + thrash)", run.PageFaults)
	}
}

func TestRNUMARelocation(t *testing.T) {
	m := newTiny(t, config.RNUMA)
	// Node 1 sweeps 32 remote blocks (4 pages) repeatedly. The 2-block
	// R-NUMA block cache forces refetches; at threshold 4 each page
	// relocates to the page cache (4 frames hold all 4 pages), after
	// which passes hit locally.
	var refs []trace.Ref
	for pass := 0; pass < 12; pass++ {
		for _, page := range []addr.PageNum{0, 2, 4, 6} {
			for off := 0; off < 8; off++ {
				refs = append(refs, trace.Ref{Page: page, Off: uint16(off)})
			}
		}
	}
	run, err := m.Run(streams4(map[int][]trace.Ref{2: refs}))
	if err != nil {
		t.Fatal(err)
	}
	if run.Relocations != 4 {
		t.Errorf("relocations = %d, want 4 (each reuse page)", run.Relocations)
	}
	if run.Replacements != 0 {
		t.Errorf("replacements = %d, want 0 (everything fits)", run.Replacements)
	}
	if run.PageCacheHits == 0 {
		t.Error("relocated pages never hit the page cache")
	}
	// After relocation the steady state is local: remote fetches must be
	// far fewer than references.
	if run.RemoteFetches > run.Refs/2 {
		t.Errorf("remote fetches = %d of %d refs; relocation ineffective", run.RemoteFetches, run.Refs)
	}
}

func TestRNUMABouncesWhenPageCacheTooSmall(t *testing.T) {
	m := newTiny(t, config.RNUMA)
	// 6 reuse pages, 4 frames: relocated pages evict each other and
	// bounce back to CC-NUMA (paper Section 5.2: fmm/radix behavior).
	var refs []trace.Ref
	for pass := 0; pass < 30; pass++ {
		for p := 0; p < 6; p++ {
			for off := 0; off < 8; off++ {
				refs = append(refs, trace.Ref{Page: addr.PageNum(2 * p), Off: uint16(off)})
			}
		}
	}
	run, err := m.Run(streams4(map[int][]trace.Ref{2: refs}))
	if err != nil {
		t.Fatal(err)
	}
	if run.Relocations <= 6 {
		t.Errorf("relocations = %d, want > 6 (bouncing)", run.Relocations)
	}
	if run.Replacements == 0 {
		t.Error("no replacements despite over-committed page cache")
	}
	// The counter reset on unmap damps the bounce: replacements happen at
	// most once per T refetches, so refetches dominate relocations.
	if run.Refetches < run.Relocations {
		t.Errorf("refetches (%d) < relocations (%d): threshold damping broken",
			run.Refetches, run.Relocations)
	}
}

func TestCoherenceMissesAreNotRefetches(t *testing.T) {
	for _, p := range []config.Protocol{config.CCNUMA, config.RNUMA} {
		m := newTiny(t, p)
		// Producer (node 0, CPU 0) writes block (0,0); consumer (node 1,
		// CPU 2) reads it. Interleaved by gaps. The consumer's misses are
		// invalidation misses, never refetches.
		var prod, cons []trace.Ref
		for i := 0; i < 20; i++ {
			prod = append(prod, trace.Ref{Page: 0, Off: 0, Write: true, Gap: 5000})
			cons = append(cons, trace.Ref{Page: 0, Off: 0, Gap: 5000})
		}
		run, err := m.Run(streams4(map[int][]trace.Ref{0: prod, 2: cons}))
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if run.Refetches != 0 {
			t.Errorf("%v: producer-consumer traffic counted %d refetches", p, run.Refetches)
		}
		if p == config.RNUMA && run.Relocations != 0 {
			t.Errorf("%v: communication page relocated", p)
		}
	}
}

func TestWritePropagatesToReader(t *testing.T) {
	m := newTiny(t, config.CCNUMA)
	// Node 0 writes; node 1 reads later. Verification (enabled in
	// newTiny) would fail if the reader saw a stale version.
	prod := []trace.Ref{{Page: 0, Off: 1, Write: true}}
	cons := []trace.Ref{{Page: 0, Off: 1, Gap: 50000}}
	run, err := m.Run(streams4(map[int][]trace.Ref{0: prod, 2: cons}))
	if err != nil {
		t.Fatal(err)
	}
	if run.ThreeHopXfers == 0 {
		t.Error("dirty data should have been recalled/forwarded from the writer")
	}
}

func TestIdealMachineNeverRefetches(t *testing.T) {
	sys := tinySys(config.CCNUMA)
	sys.BlockCacheBytes = config.InfiniteBlockCache
	m, err := New(sys, WithHomes(evenOddHomes), WithVerify())
	if err != nil {
		t.Fatal(err)
	}
	var refs []trace.Ref
	for pass := 0; pass < 5; pass++ {
		for p := 0; p < 8; p++ {
			for off := 0; off < 8; off++ {
				refs = append(refs, trace.Ref{Page: addr.PageNum(2 * p), Off: uint16(off)})
			}
		}
	}
	run, err := m.Run(streams4(map[int][]trace.Ref{2: refs}))
	if err != nil {
		t.Fatal(err)
	}
	if run.Refetches != 0 {
		t.Errorf("ideal machine refetched %d times", run.Refetches)
	}
	// Exactly one remote fetch per distinct block.
	if run.RemoteFetches != 64 {
		t.Errorf("remote fetches = %d, want 64", run.RemoteFetches)
	}
}

func TestUpgradeNotRefetch(t *testing.T) {
	m := newTiny(t, config.CCNUMA)
	// Node 1 reads a block then writes it: the write is an upgrade (the
	// node still holds the data), not a refetch.
	refs := []trace.Ref{
		{Page: 0, Off: 0},
		{Page: 0, Off: 0, Write: true},
	}
	run, err := m.Run(streams4(map[int][]trace.Ref{2: refs}))
	if err != nil {
		t.Fatal(err)
	}
	if run.Refetches != 0 {
		t.Errorf("upgrade counted as refetch")
	}
	if run.Upgrades != 1 {
		t.Errorf("upgrades = %d, want 1", run.Upgrades)
	}
	if run.RemoteFetches != 1 {
		t.Errorf("remote fetches = %d, want 1 (the initial read)", run.RemoteFetches)
	}
}

func TestFirstTouchHoming(t *testing.T) {
	sys := tinySys(config.CCNUMA)
	sys.FirstTouch = true
	m, err := New(sys, WithVerify()) // no explicit homes
	if err != nil {
		t.Fatal(err)
	}
	// Node 1 touches page 4 first: it becomes home, so a later sweep by
	// node 1 is all local.
	refs := make([]trace.Ref, 0, 16)
	for off := 0; off < 8; off++ {
		refs = append(refs, trace.Ref{Page: 4, Off: uint16(off)})
	}
	refs = append(refs, refs...)
	run, err := m.Run(streams4(map[int][]trace.Ref{2: refs}))
	if err != nil {
		t.Fatal(err)
	}
	if run.RemoteFetches != 0 {
		t.Errorf("first-touch page still fetched remotely %d times", run.RemoteFetches)
	}
	if got := m.HomeOf(4, 0); got != 1 {
		t.Errorf("home of page 4 = node %d, want 1 (first toucher)", got)
	}
}

func TestRunStreamCountMismatch(t *testing.T) {
	m := newTiny(t, config.CCNUMA)
	if _, err := m.Run([]trace.Stream{trace.FromSlice(nil)}); err == nil {
		t.Error("mismatched stream count accepted")
	}
}

func TestExecIsMaxOverCPUs(t *testing.T) {
	m := newTiny(t, config.CCNUMA)
	// CPU 0 runs a long local loop; CPU 3 a short one. Exec time is
	// dominated by CPU 0.
	long := make([]trace.Ref, 1000)
	for i := range long {
		long[i] = trace.Ref{Page: 0, Off: uint16(i % 8), Gap: 100}
	}
	short := []trace.Ref{{Page: 1, Off: 0}}
	run, err := m.Run(streams4(map[int][]trace.Ref{0: long, 3: short}))
	if err != nil {
		t.Fatal(err)
	}
	if run.ExecCycles < 100*1000 {
		t.Errorf("exec = %d, want >= %d (the long CPU)", run.ExecCycles, 100*1000)
	}
}
