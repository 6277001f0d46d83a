package blockcache

import (
	"reflect"
	"strings"
	"testing"

	"rnuma/internal/addr"
)

func TestFillLookupEvict(t *testing.T) {
	c := New(4) // the R-NUMA base: 128 bytes = 4 frames
	if c.Infinite() {
		t.Fatal("4-frame cache reported infinite")
	}
	if c.Frames() != 4 {
		t.Fatalf("frames = %d", c.Frames())
	}
	b := addr.BlockNum(10)
	if _, ok := c.Lookup(b); ok {
		t.Fatal("empty cache hit")
	}
	c.Fill(b, ReadOnly, false, 3)
	e, ok := c.Lookup(b)
	if !ok || e.State != ReadOnly || e.Version != 3 {
		t.Errorf("lookup = %+v, %v", e, ok)
	}
	// Conflicting fill (same frame: 10 % 4 == 14 % 4).
	victim, ev := c.Fill(addr.BlockNum(14), ReadWrite, true, 9)
	if !ev || victim.Block != b {
		t.Errorf("victim = %+v, evicted=%v", victim, ev)
	}
	if _, ok := c.Lookup(b); ok {
		t.Error("evicted block still resident")
	}
}

func TestUpdate(t *testing.T) {
	c := New(8)
	b := addr.BlockNum(5)
	if c.Update(b, ReadWrite, true, 1) {
		t.Error("update of absent block should fail")
	}
	c.Fill(b, ReadOnly, false, 1)
	if !c.Update(b, ReadWrite, true, 2) {
		t.Error("update of resident block should succeed")
	}
	e, _ := c.Lookup(b)
	if e.State != ReadWrite || !e.Dirty || e.Version != 2 {
		t.Errorf("after update: %+v", e)
	}
}

func TestInvalidateAndDowngrade(t *testing.T) {
	c := New(8)
	b := addr.BlockNum(2)
	c.Fill(b, ReadWrite, true, 5)
	c.Downgrade(b, 8) // the node's L1 held newer data (version 8)
	e, _ := c.Lookup(b)
	if e.State != ReadOnly || e.Dirty || e.Version != 8 {
		t.Errorf("after downgrade: %+v", e)
	}
	old, found := c.Invalidate(b)
	if !found || old.Block != b {
		t.Errorf("invalidate = %+v, %v", old, found)
	}
	if _, ok := c.Lookup(b); ok {
		t.Error("block resident after invalidate")
	}
	if _, found := c.Invalidate(b); found {
		t.Error("double invalidate found the block")
	}
}

func TestInfiniteNeverEvicts(t *testing.T) {
	c := New(-1)
	if !c.Infinite() {
		t.Fatal("not infinite")
	}
	for i := 0; i < 10000; i++ {
		if _, ev := c.Fill(addr.BlockNum(i), ReadOnly, false, uint32(i)); ev {
			t.Fatal("infinite cache evicted")
		}
	}
	for i := 0; i < 10000; i++ {
		e, ok := c.Lookup(addr.BlockNum(i))
		if !ok || e.Version != uint32(i) {
			t.Fatalf("block %d lost from infinite cache", i)
		}
	}
}

func TestInfiniteUpdateInvalidate(t *testing.T) {
	c := New(-1)
	b := addr.BlockNum(42)
	c.Fill(b, ReadOnly, false, 1)
	if !c.Update(b, ReadWrite, true, 2) {
		t.Error("infinite update failed")
	}
	c.Downgrade(b, 3)
	if e, _ := c.Lookup(b); e.State != ReadOnly || e.Version != 3 {
		t.Error("infinite downgrade failed")
	}
	if _, found := c.Invalidate(b); !found {
		t.Error("infinite invalidate failed")
	}
	if _, ok := c.Lookup(b); ok {
		t.Error("block survived invalidate")
	}
}

func TestPageEntriesAndInvalidatePage(t *testing.T) {
	g := addr.Default
	c := New(1024) // the CC-NUMA base: 32 KB
	page := addr.PageNum(2)
	for off := 0; off < 6; off++ {
		c.Fill(g.BlockOf(page, off), ReadWrite, true, uint32(off))
	}
	other := g.BlockOf(addr.PageNum(5), 1)
	c.Fill(other, ReadOnly, false, 9)
	got := c.PageEntries(g, page)
	if len(got) != 6 {
		t.Fatalf("PageEntries = %d, want 6", len(got))
	}
	c.InvalidatePage(g, page)
	if len(c.PageEntries(g, page)) != 0 {
		t.Error("page entries survive InvalidatePage")
	}
	if _, ok := c.Lookup(other); !ok {
		t.Error("InvalidatePage disturbed another page")
	}
}

func TestPageEntriesInfinite(t *testing.T) {
	g := addr.Default
	c := New(-1)
	page := addr.PageNum(7)
	for off := 0; off < 3; off++ {
		c.Fill(g.BlockOf(page, off), ReadOnly, false, 0)
	}
	if got := c.PageEntries(g, page); len(got) != 3 {
		t.Errorf("infinite PageEntries = %d, want 3", len(got))
	}
	c.InvalidatePage(g, page)
	if got := c.PageEntries(g, page); len(got) != 0 {
		t.Error("infinite InvalidatePage failed")
	}
}

func TestFillInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Fill with Invalid state should panic")
		}
	}()
	New(4).Fill(addr.BlockNum(0), Invalid, false, 0)
}

func TestStateStrings(t *testing.T) {
	for _, s := range []State{Invalid, ReadOnly, ReadWrite} {
		if s.String() == "?" {
			t.Errorf("state %d lacks a name", s)
		}
	}
}

func TestStats(t *testing.T) {
	c := New(4)
	c.Lookup(addr.BlockNum(1))
	c.Fill(addr.BlockNum(1), ReadOnly, false, 0)
	c.Lookup(addr.BlockNum(1))
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Errorf("hits/misses = %d/%d", c.Hits(), c.Misses())
	}
}

// TestInfiniteDenseIndex: the infinite cache's entries stay with their
// blocks, so refilling invalidated blocks allocates nothing; its page
// walks return a page's resident blocks in block order; State() lists
// resident entries sorted by block and round-trips through SetState,
// which refuses a block past the segment bound.
func TestInfiniteDenseIndex(t *testing.T) {
	g := addr.Default
	c := New(-1)
	blocks := []addr.BlockNum{g.BlockOf(3, 7), g.BlockOf(3, 2), g.BlockOf(1, 5), g.BlockOf(3, 0)}
	for i, b := range blocks {
		c.Fill(b, ReadOnly, false, uint32(i))
	}
	size := len(c.frames)
	if n := testing.AllocsPerRun(100, func() {
		for _, b := range blocks {
			c.Invalidate(b)
			c.Fill(b, ReadWrite, true, 9)
		}
	}); n != 0 || len(c.frames) != size {
		t.Errorf("refilling invalidated blocks allocates %.1f times and grows the pool from %d to %d entries", n, size, len(c.frames))
	}
	var got []addr.BlockNum
	for _, e := range c.PageEntries(g, 3) {
		got = append(got, e.Block)
	}
	if want := []addr.BlockNum{g.BlockOf(3, 0), g.BlockOf(3, 2), g.BlockOf(3, 7)}; !reflect.DeepEqual(got, want) {
		t.Errorf("page 3 entries %v, want %v", got, want)
	}
	c.Invalidate(g.BlockOf(3, 2))
	entries, _, _ := c.State()
	got = got[:0]
	for _, e := range entries {
		got = append(got, e.Block)
	}
	if want := []addr.BlockNum{g.BlockOf(1, 5), g.BlockOf(3, 0), g.BlockOf(3, 7)}; !reflect.DeepEqual(got, want) {
		t.Errorf("State() blocks %v, want %v", got, want)
	}
	r := New(-1)
	if err := r.SetState(entries, 1, 2); err != nil {
		t.Fatal(err)
	}
	if back, _, _ := r.State(); !reflect.DeepEqual(back, entries) {
		t.Errorf("round trip %v, want %v", back, entries)
	}
	far := []Entry{{Block: addr.MaxSegmentBlocks, State: ReadOnly}}
	if err := r.SetState(far, 0, 0); err == nil || !strings.Contains(err.Error(), "segment bound") {
		t.Errorf("a block past the segment bound: %v", err)
	}
}

// TestNewRejectsUnmodeledFrameCounts: the direct-mapped index masks the
// block number, so New refuses a frame count that is not a power of two
// rather than model a cache with unreachable frames.
func TestNewRejectsUnmodeledFrameCounts(t *testing.T) {
	for _, frames := range []int{0, 3, 96} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) built a direct-mapped cache", frames)
				}
			}()
			New(frames)
		}()
	}
}
