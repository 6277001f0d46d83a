package directory

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rnuma/internal/addr"
)

func TestColdReadNotRefetch(t *testing.T) {
	d := New(8)
	res := d.Fetch(1, 0, false)
	if res.Refetch {
		t.Error("cold miss classified as refetch")
	}
	if res.FromOwner != addr.NoNode || len(res.Invalidate) != 0 {
		t.Errorf("cold read triggered actions: %+v", res)
	}
	e := d.Entry(1)
	if e.Sharers != 1 || e.Owner != addr.NoNode {
		t.Errorf("after read: %+v", e)
	}
}

// TestSilentDropRefetch: the core of Section 3.1 for read-only data — a
// node that silently drops a clean copy and fetches again is refetching.
func TestSilentDropRefetch(t *testing.T) {
	d := New(8)
	d.Fetch(1, 3, false)
	// Node 3 silently drops (non-notifying): no directory call at all.
	res := d.Fetch(1, 3, false)
	if !res.Refetch {
		t.Error("re-fetch after silent drop not classified as refetch")
	}
}

// TestVoluntaryWritebackRefetch: the read-write case — a node that evicted
// a dirty block (voluntary writeback) and fetches again is refetching.
func TestVoluntaryWritebackRefetch(t *testing.T) {
	d := New(8)
	d.Fetch(1, 3, true) // node 3 takes the block exclusive
	d.WritebackVoluntary(1, 3, 7)
	e := d.Entry(1)
	if e.Owner != addr.NoNode || e.Sharers != 0 || e.PrevHeld != 1<<3 || e.Version != 7 {
		t.Fatalf("after voluntary writeback: %+v", e)
	}
	res := d.Fetch(1, 3, false)
	if !res.Refetch {
		t.Error("re-fetch after voluntary writeback not a refetch")
	}
	if d.Entry(1).PrevHeld != 0 {
		t.Error("prevHeld not cleared by the re-fetch")
	}
}

// TestInvalidationClearsRefetchState: a coherence miss must never count
// as a refetch — a write by another node clears both sharer and
// previously-held state.
func TestInvalidationClearsRefetchState(t *testing.T) {
	d := New(8)
	d.Fetch(1, 3, false) // node 3 reads
	d.Fetch(1, 2, true)  // node 2 writes: node 3 invalidated
	res := d.Fetch(1, 3, false)
	if res.Refetch {
		t.Error("invalidation miss misclassified as refetch")
	}
}

// TestWriteClearsAllPrevHeld: after any write, every node's next miss is a
// coherence miss.
func TestWriteClearsAllPrevHeld(t *testing.T) {
	d := New(8)
	d.Fetch(1, 3, true)
	d.WritebackVoluntary(1, 3, 1) // prevHeld{3}
	d.Fetch(1, 2, true)           // write by node 2
	res := d.Fetch(1, 3, false)
	if res.Refetch {
		t.Error("node 3's miss after node 2's write is a coherence miss, not a refetch")
	}
}

func TestReadFromDirtyOwner(t *testing.T) {
	d := New(8)
	d.Fetch(1, 2, true) // node 2 owns
	res := d.Fetch(1, 5, false)
	if res.FromOwner != 2 {
		t.Errorf("FromOwner = %d, want 2", res.FromOwner)
	}
	e := d.Entry(1)
	if e.Owner != addr.NoNode {
		t.Error("owner not cleared by downgrade")
	}
	if e.Sharers != (1<<2)|(1<<5) {
		t.Errorf("sharers = %b, want nodes 2 and 5", e.Sharers)
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	d := New(8)
	d.Fetch(1, 0, false)
	d.Fetch(1, 3, false)
	d.Fetch(1, 5, false)
	res := d.Fetch(1, 3, true)
	if len(res.Invalidate) != 2 {
		t.Fatalf("invalidations = %v, want nodes 0 and 5", res.Invalidate)
	}
	got := map[addr.NodeID]bool{}
	for _, n := range res.Invalidate {
		got[n] = true
	}
	if !got[0] || !got[5] || got[3] {
		t.Errorf("invalidate set = %v", res.Invalidate)
	}
	e := d.Entry(1)
	if e.Owner != 3 || e.Sharers != 1<<3 {
		t.Errorf("after write: %+v", e)
	}
}

func TestWriteFromDirtyOwnerForwards(t *testing.T) {
	d := New(8)
	d.Fetch(1, 2, true)
	res := d.Fetch(1, 6, true)
	if res.FromOwner != 2 {
		t.Errorf("FromOwner = %d, want 2", res.FromOwner)
	}
	// Owner is handled by forwarding, not by the invalidation list.
	for _, n := range res.Invalidate {
		if n == 2 {
			t.Error("owner also in invalidate list")
		}
	}
	e := d.Entry(1)
	if e.Owner != 6 || e.Sharers != 1<<6 {
		t.Errorf("after owner-to-owner transfer: %+v", e)
	}
}

func TestUpgrade(t *testing.T) {
	d := New(8)
	d.Fetch(1, 1, false)
	d.Fetch(1, 4, false)
	inval := d.Upgrade(1, 4)
	if len(inval) != 1 || inval[0] != 1 {
		t.Errorf("upgrade invalidations = %v, want [1]", inval)
	}
	e := d.Entry(1)
	if e.Owner != 4 || e.Sharers != 1<<4 || e.PrevHeld != 0 {
		t.Errorf("after upgrade: %+v", e)
	}
}

func TestHomeVersion(t *testing.T) {
	d := New(4)
	if d.HomeVersion(9) != 0 {
		t.Error("untouched block should have version 0")
	}
	d.SetHomeVersion(9, 42)
	if d.HomeVersion(9) != 42 {
		t.Error("version not stored")
	}
}

func TestClearNode(t *testing.T) {
	d := New(4)
	d.Fetch(1, 2, true)
	d.ClearNode(1, 2)
	e := d.Entry(1)
	if e.Owner != addr.NoNode || e.Sharers != 0 || e.PrevHeld != 0 {
		t.Errorf("after clear: %+v", e)
	}
	res := d.Fetch(1, 2, false)
	if res.Refetch {
		t.Error("ClearNode must not arm refetch detection")
	}
}

func TestCheckInvariants(t *testing.T) {
	d := New(4)
	d.Fetch(1, 0, false)
	d.Fetch(1, 1, false)
	d.Fetch(2, 3, true)
	if err := d.Check(); err != nil {
		t.Errorf("legal states flagged: %v", err)
	}
	// Corrupt: owner with extra sharers.
	e := d.Entry(2)
	e.Sharers |= 1 << 1
	if err := d.Check(); err == nil {
		t.Error("owner+extra sharer not flagged")
	}
	e.Sharers = 1 << 3
	e.PrevHeld = 1 << 3
	if err := d.Check(); err == nil {
		t.Error("owner in prevHeld not flagged")
	}
}

func TestPeekAndBlocks(t *testing.T) {
	d := New(4)
	if _, ok := d.Peek(5); ok {
		t.Error("peek created an entry")
	}
	d.Fetch(5, 0, false)
	if _, ok := d.Peek(5); !ok {
		t.Error("peek missed an existing entry")
	}
	if d.Blocks() != 1 {
		t.Errorf("blocks = %d, want 1", d.Blocks())
	}
}

// TestRandomTrafficInvariants drives random protocol traffic and checks
// the directory invariants continuously, plus the refetch-soundness
// property: a fetch is a refetch only if the node previously fetched the
// block and no other node wrote it in between.
func TestRandomTrafficInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const nodes = 4
		d := New(nodes)
		// holds[b][n]: whether node n fetched b and wasn't invalidated.
		type key struct {
			b addr.BlockNum
			n addr.NodeID
		}
		everHeld := map[key]bool{}
		for op := 0; op < 800; op++ {
			b := addr.BlockNum(rng.Intn(8))
			n := addr.NodeID(rng.Intn(nodes))
			switch rng.Intn(3) {
			case 0: // read
				res := d.Fetch(b, n, false)
				if res.Refetch && !everHeld[key{b, n}] {
					return false // refetch without prior possession
				}
				everHeld[key{b, n}] = true
			case 1: // write
				res := d.Fetch(b, n, true)
				if res.Refetch && !everHeld[key{b, n}] {
					return false
				}
				// All other nodes lose their copies and their history.
				for i := addr.NodeID(0); i < nodes; i++ {
					if i != n {
						everHeld[key{b, i}] = false
					}
				}
				everHeld[key{b, n}] = true
			case 2: // voluntary writeback if owner
				if e := d.Entry(b); e.Owner == n {
					d.WritebackVoluntary(b, n, rng.Uint32())
				}
			}
			if d.Check() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestFetchAllocationFree pins the hot-path contract: once a block's
// entry exists, Fetch never allocates — invalidation target lists reuse
// the directory's scratch buffer (which is why FetchResult.Invalidate is
// only valid until the next call).
func TestFetchAllocationFree(t *testing.T) {
	d := New(8)
	for _, n := range []addr.NodeID{0, 1, 2} {
		d.Fetch(5, n, false)
	}
	if n := testing.AllocsPerRun(500, func() {
		d.Fetch(5, 3, true)  // write: invalidates the three sharers
		d.Fetch(5, 0, false) // read: three-hop supply from owner 3
		d.Fetch(5, 1, false)
		d.Fetch(5, 2, false)
	}); n != 0 {
		t.Errorf("steady-state Fetch cycle allocates %.1f times", n)
	}
}

// TestStateRoundTrip: State/SetState (the snapshot path) reproduces the
// directory exactly, and corrupted shapes are rejected.
func TestStateRoundTrip(t *testing.T) {
	d := New(8)
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 500; i++ {
		d.Fetch(addr.BlockNum(rng.Intn(64)), addr.NodeID(rng.Intn(8)), rng.Intn(3) == 0)
	}
	blocks, entries := d.State()

	r := New(8)
	if err := r.SetState(blocks, entries); err != nil {
		t.Fatal(err)
	}
	if err := r.Check(); err != nil {
		t.Fatalf("restored directory violates invariants: %v", err)
	}
	b2, e2 := r.State()
	if len(b2) != len(blocks) || len(e2) != len(entries) {
		t.Fatalf("restored table has %d/%d entries, want %d/%d", len(b2), len(e2), len(blocks), len(entries))
	}
	for i := range blocks {
		if b2[i] != blocks[i] || e2[i] != entries[i] {
			t.Fatalf("entry %d changed across the round trip", i)
		}
	}
	// The restored copy behaves identically going forward.
	if got, want := r.Fetch(blocks[0], 7, true), d.Fetch(blocks[0], 7, true); got.Refetch != want.Refetch || got.FromOwner != want.FromOwner {
		t.Errorf("post-restore fetch diverged: %+v vs %+v", got, want)
	}

	// Corrupted shapes: length mismatch and duplicate blocks.
	if err := New(8).SetState(blocks[:1], entries); err == nil {
		t.Error("length-mismatched state accepted")
	}
	if len(blocks) >= 2 {
		dup := append([]addr.BlockNum(nil), blocks...)
		dup[1] = dup[0]
		if err := New(8).SetState(dup, entries); err == nil {
			t.Error("duplicate block entries accepted")
		}
	}
}

// TestEntryAllocationFree: fetching an existing block's entry through
// the dense index allocates nothing.
func TestEntryAllocationFree(t *testing.T) {
	d := New(8)
	for b := addr.BlockNum(0); b < 4096; b += 7 {
		d.Entry(b)
	}
	if n := testing.AllocsPerRun(500, func() {
		d.Entry(4095).Version++
		d.Entry(0).Version++
	}); n != 0 {
		t.Errorf("Entry on an existing block allocates %.1f times", n)
	}
}

// TestSetStateReplacesIndex: restoring over a populated directory drops
// the old blocks and finds every restored one, in creation order.
func TestSetStateReplacesIndex(t *testing.T) {
	d := New(4)
	d.Fetch(900, 1, false)
	if err := d.SetState([]addr.BlockNum{12, 3}, []Entry{{Owner: 2, Sharers: 1 << 2}, {Owner: addr.NoNode, Version: 9}}); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Peek(900); ok {
		t.Error("block from before SetState survived it")
	}
	if e, ok := d.Peek(12); !ok || e.Owner != 2 {
		t.Errorf("restored block 12 = %+v, %v", e, ok)
	}
	if v := d.HomeVersion(3); v != 9 {
		t.Errorf("restored block 3 home version %d, want 9", v)
	}
	var order []addr.BlockNum
	d.Each(func(b addr.BlockNum, _ *Entry) { order = append(order, b) })
	if len(order) != 2 || order[0] != 12 || order[1] != 3 {
		t.Errorf("Each visited %v, want creation order [12 3]", order)
	}
}
