package pagecache

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"rnuma/internal/addr"
)

func TestAllocateLookup(t *testing.T) {
	c := New(4, 128)
	if c.Frames() != 4 || c.FreeFrames() != 4 || c.InUse() != 0 {
		t.Fatalf("fresh cache: frames=%d free=%d inuse=%d", c.Frames(), c.FreeFrames(), c.InUse())
	}
	idx := c.Allocate(addr.PageNum(7), 100)
	if got, ok := c.FrameOf(7); !ok || got != idx {
		t.Errorf("FrameOf(7) = %d,%v", got, ok)
	}
	if c.FreeFrames() != 3 || c.InUse() != 1 {
		t.Errorf("after alloc: free=%d inuse=%d", c.FreeFrames(), c.InUse())
	}
	f := c.FrameAt(idx)
	if f.Page != 7 || !f.InUse || f.LastMiss != 100 {
		t.Errorf("frame = %+v", f)
	}
	for off := 0; off < 128; off++ {
		if c.Tag(idx, off) != TagInvalid {
			t.Fatal("fresh frame has valid tags")
		}
	}
}

func TestSetBlockCounts(t *testing.T) {
	c := New(2, 128)
	idx := c.Allocate(1, 0)
	c.SetBlock(idx, 0, TagReadOnly, false, 5)
	c.SetBlock(idx, 1, TagReadWrite, true, 6)
	f := c.FrameAt(idx)
	if f.ValidBlocks() != 2 || f.DirtyBlocks() != 1 {
		t.Errorf("valid=%d dirty=%d, want 2/1", f.ValidBlocks(), f.DirtyBlocks())
	}
	// Upgrading in place must not double count.
	c.SetBlock(idx, 0, TagReadWrite, true, 7)
	if f.ValidBlocks() != 2 || f.DirtyBlocks() != 2 {
		t.Errorf("after upgrade: valid=%d dirty=%d, want 2/2", f.ValidBlocks(), f.DirtyBlocks())
	}
	if c.Version(idx, 0) != 7 {
		t.Errorf("version = %d, want 7", c.Version(idx, 0))
	}
	dl := f.DirtyList()
	if len(dl) != 2 || dl[0].Off != 0 || dl[1].Off != 1 {
		t.Errorf("dirty list = %+v", dl)
	}
}

func TestInvalidateBlock(t *testing.T) {
	c := New(2, 128)
	idx := c.Allocate(1, 0)
	c.SetBlock(idx, 3, TagReadWrite, true, 9)
	wasDirty, ver := c.InvalidateBlock(idx, 3)
	if !wasDirty || ver != 9 {
		t.Errorf("invalidate = %v,%d", wasDirty, ver)
	}
	if c.Tag(idx, 3) != TagInvalid {
		t.Error("tag still valid")
	}
	if f := c.FrameAt(idx); f.ValidBlocks() != 0 || f.DirtyBlocks() != 0 {
		t.Error("counts not decremented")
	}
	if wasDirty, _ := c.InvalidateBlock(idx, 3); wasDirty {
		t.Error("double invalidate reported dirty")
	}
}

// TestLRMPolicy verifies Least Recently Missed: the victim is the frame
// with the oldest last-miss time, and hits do not refresh it.
func TestLRMPolicy(t *testing.T) {
	c := New(3, 128)
	a := c.Allocate(10, 100)
	b := c.Allocate(20, 200)
	d := c.Allocate(30, 300)
	_ = b
	_ = d
	// Page 10 missed longest ago; "hits" (which never call TouchMiss)
	// must not save it.
	vidx, ok := c.PickVictim()
	if !ok || vidx != a {
		t.Fatalf("victim = frame %d, want %d (page 10)", vidx, a)
	}
	// A remote miss on page 10 refreshes it; page 20 becomes the victim.
	c.TouchMiss(a, 400)
	vidx, _ = c.PickVictim()
	if c.FrameAt(vidx).Page != 20 {
		t.Errorf("victim after touch = page %d, want 20", c.FrameAt(vidx).Page)
	}
}

func TestEvictFreesFrame(t *testing.T) {
	c := New(2, 128)
	idx := c.Allocate(5, 1)
	c.SetBlock(idx, 0, TagReadWrite, true, 1)
	page := c.Evict(idx)
	if page != 5 {
		t.Errorf("evicted page = %d, want 5", page)
	}
	if _, ok := c.FrameOf(5); ok {
		t.Error("evicted page still mapped")
	}
	if c.FreeFrames() != 2 {
		t.Errorf("free = %d, want 2", c.FreeFrames())
	}
	// The freed frame must come back clean.
	idx2 := c.Allocate(6, 2)
	for off := 0; off < 128; off++ {
		if c.Tag(idx2, off) != TagInvalid {
			t.Fatal("recycled frame not cleaned")
		}
	}
	if c.Replacements() != 1 || c.Allocations() != 2 {
		t.Errorf("repl=%d alloc=%d", c.Replacements(), c.Allocations())
	}
}

func TestAllocatePanics(t *testing.T) {
	c := New(1, 128)
	c.Allocate(1, 0)
	t.Run("no free frames", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		c.Allocate(2, 0)
	})
	t.Run("duplicate page", func(t *testing.T) {
		c := New(2, 128)
		c.Allocate(1, 0)
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		c.Allocate(1, 0)
	})
	t.Run("evict free frame", func(t *testing.T) {
		c := New(2, 128)
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		c.Evict(0)
	})
}

func TestPickVictimEmpty(t *testing.T) {
	c := New(2, 128)
	if _, ok := c.PickVictim(); ok {
		t.Error("empty cache offered a victim")
	}
}

// TestLRMVictimProperty: across random allocate/touch sequences, the
// picked victim always has the minimum LastMiss among in-use frames.
func TestLRMVictimProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(8, 16)
		now := int64(0)
		next := addr.PageNum(0)
		for op := 0; op < 300; op++ {
			now += int64(rng.Intn(10) + 1)
			if c.FreeFrames() > 0 && rng.Intn(2) == 0 {
				c.Allocate(next, now)
				next++
				continue
			}
			if c.InUse() == 0 {
				continue
			}
			if rng.Intn(2) == 0 {
				// Touch a random in-use frame.
				for {
					i := rng.Intn(8)
					if c.FrameAt(i).InUse {
						c.TouchMiss(i, now)
						break
					}
				}
				continue
			}
			vidx, ok := c.PickVictim()
			if !ok {
				return false
			}
			vm := c.FrameAt(vidx).LastMiss
			for i := 0; i < 8; i++ {
				f := c.FrameAt(i)
				if f.InUse && f.LastMiss < vm {
					return false
				}
			}
			c.Evict(vidx)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestTagStrings(t *testing.T) {
	for _, s := range []TagState{TagInvalid, TagReadOnly, TagReadWrite} {
		if s.String() == "?" {
			t.Errorf("tag %d lacks a name", s)
		}
	}
}

func TestHitMissStats(t *testing.T) {
	c := New(1, 16)
	c.RecordHit()
	c.RecordMiss()
	c.RecordMiss()
	if c.Hits() != 1 || c.Misses() != 2 {
		t.Errorf("hits/misses = %d/%d", c.Hits(), c.Misses())
	}
}

func TestLRUPolicyRefreshesOnHit(t *testing.T) {
	c := NewWithPolicy(2, 16, LRU)
	if c.Policy() != LRU {
		t.Fatal("policy not stored")
	}
	a := c.Allocate(1, 100)
	c.Allocate(2, 200)
	// A hit on the older frame refreshes it under LRU...
	c.TouchHit(a, 300)
	if v, _ := c.PickVictim(); c.FrameAt(v).Page != 2 {
		t.Errorf("LRU victim = page %d, want 2 (page 1 was hit)", c.FrameAt(v).Page)
	}
	// ...but not under the paper's LRM.
	lrm := New(2, 16)
	a = lrm.Allocate(1, 100)
	lrm.Allocate(2, 200)
	lrm.TouchHit(a, 300)
	if v, _ := lrm.PickVictim(); lrm.FrameAt(v).Page != 1 {
		t.Errorf("LRM victim = page %d, want 1 (hits do not refresh)", lrm.FrameAt(v).Page)
	}
}

func TestPolicyStrings(t *testing.T) {
	if LRM.String() != "LRM" || LRU.String() != "LRU" {
		t.Error("policy names wrong")
	}
	if Policy(9).String() != "?" {
		t.Error("unknown policy should render ?")
	}
}

// TestLRMAllocationFree pins the replacement hot path: with the cache
// full, a pick-victim/evict/allocate cycle (the LRM replacement S-COMA
// performs on every page-cache miss) never allocates.
func TestLRMAllocationFree(t *testing.T) {
	c := New(4, 8)
	for p := 0; p < 4; p++ {
		c.Allocate(addr.PageNum(p), int64(p))
	}
	now := int64(100)
	next := addr.PageNum(10)
	if n := testing.AllocsPerRun(500, func() {
		idx, ok := c.PickVictim()
		if !ok {
			t.Fatal("full cache has no victim")
		}
		c.Evict(idx)
		c.Allocate(next, now)
		c.SetBlock(idx, 3, TagReadWrite, true, uint32(now))
		next = (next + 1) % 16
		now++
	}); n != 0 {
		t.Errorf("steady-state LRM replacement allocates %.1f times", n)
	}
}

// drive applies operation i of a fixed pseudo-random sequence to c:
// allocations (replacing the LRM victim when the cache is full),
// evictions of a random in-use frame, block updates, invalidations and
// LRM touches. The choice depends only on i and on the
// cache's state, so caches in equal states take equal steps. It returns
// the frame an allocation picked, or -1.
func drive(c *Cache, i int) int {
	x := uint64(i+1) * 0x9e3779b97f4a7c15
	next := func(n int) int {
		x ^= x >> 31
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 29
		return int(x % uint64(n))
	}
	now := int64(10 * i)
	var inUse []int
	for idx := 0; idx < c.Frames(); idx++ {
		if c.FrameAt(idx).InUse {
			inUse = append(inUse, idx)
		}
	}
	op := next(10)
	if len(inUse) == 0 || op < 3 {
		p := addr.PageNum(next(40))
		if _, mapped := c.FrameOf(p); mapped {
			return -1
		}
		if c.FreeFrames() == 0 {
			v, _ := c.PickVictim()
			c.Evict(v)
		}
		return c.Allocate(p, now)
	}
	idx, off := inUse[next(len(inUse))], next(c.blocksPerPage)
	switch op {
	case 3:
		c.Evict(idx)
	case 4, 5:
		c.SetBlock(idx, off, TagState(1+next(2)), next(2) == 0, uint32(next(1000)))
	case 6:
		c.InvalidateBlock(idx, off)
	case 7:
		c.TouchMiss(idx, now)
	case 8:
		c.TouchHit(idx, now)
	}
	return -1
}

func stateDigest(s State) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%+v", s))))[:16]
}

// TestLazyFramesMatchEagerCache pins frame creation on first use against
// the cache that built every frame up front: over a sequence with
// evictions, allocations pick the frames the eager free stack picked
// (the most recently evicted first, then the lowest never-used index;
// the order was recorded from that cache). State() at each checkpoint
// lists exactly the frames created so far (its digests pin that
// by-use state). A cache restored at a checkpoint creates exactly those
// frames and then continues with the same allocations and the same
// states.
func TestLazyFramesMatchEagerCache(t *testing.T) {
	const frames, ops = 12, 400
	wantOrder := []int{0, 1, 2, 3, 4, 5, 4, 2, 2, 1, 6, 7, 8, 9, 10, 2, 11, 6, 0, 4, 2, 5, 3, 1, 7, 0, 4, 9, 8, 11, 7, 10, 4, 6, 8, 3, 10, 0, 9, 2, 1, 6, 5, 11, 8, 1, 3, 5, 10, 9, 2, 0, 7, 6, 11, 8, 1, 3, 5, 10, 9, 4, 2, 0, 0, 2, 7, 6, 11, 3, 9, 8, 11, 5, 1, 4, 4, 7, 10, 6, 0, 7, 3, 11, 1, 2, 5, 1, 5, 9, 3}
	wantDigest := map[int]string{
		5:   "cd513fbbb97a48e9",
		30:  "264e5e73c0ca3999",
		150: "dd9c41081407b5bc",
		ops: "12d05a65c7577b3b",
	}
	c := New(frames, 8)
	if len(c.frames) != 0 {
		t.Fatalf("a fresh cache created %d frames", len(c.frames))
	}
	var order []int
	snaps := map[int]State{}
	created := map[int]int{}
	for i := 0; i < ops; i++ {
		for _, at := range []int{5, 30, 150} {
			if i == at {
				snaps[at], created[at] = c.State(), len(c.frames)
				if n := len(snaps[at].Frames); n != created[at] {
					t.Errorf("state after %d ops lists %d frames, %d were created", at, n, created[at])
				}
			}
		}
		if idx := drive(c, i); idx >= 0 {
			order = append(order, idx)
		}
	}
	if !reflect.DeepEqual(order, wantOrder) {
		t.Errorf("allocation order\n got %v\nwant %v", order, wantOrder)
	}
	final := c.State()
	for at, s := range snaps {
		if got, want := stateDigest(s), wantDigest[at]; got != want {
			t.Errorf("state after %d ops: digest %s, want %s", at, got, want)
		}
	}
	if got, want := stateDigest(final), wantDigest[ops]; got != want {
		t.Errorf("final state: digest %s, want %s", got, want)
	}

	for at, s := range snaps {
		r := New(frames, 8)
		if err := r.SetState(s); err != nil {
			t.Fatal(err)
		}
		if got := r.State(); !reflect.DeepEqual(got, s) {
			t.Errorf("restore at %d ops: State() round trip differs", at)
		}
		if len(r.frames) != created[at] {
			t.Errorf("restore at %d ops created %d frames, the original had %d", at, len(r.frames), created[at])
		}
		var resumed []int
		for i := at; i < ops; i++ {
			if idx := drive(r, i); idx >= 0 {
				resumed = append(resumed, idx)
			}
		}
		if tail := order[len(order)-len(resumed):]; !reflect.DeepEqual(resumed, tail) {
			t.Errorf("restored at %d ops: allocations\n got %v\nwant %v", at, resumed, tail)
		}
		if !reflect.DeepEqual(r.State(), final) {
			t.Errorf("restored at %d ops: final state differs", at)
		}
	}
}

// TestSetStateRejects: a restore refuses a state whose frames and free
// stack disagree, or whose frames do not fit the cache.
func TestSetStateRejects(t *testing.T) {
	c := New(4, 8)
	a := c.Allocate(1, 10)
	c.Allocate(2, 20)
	c.Evict(a)
	good := c.State() // frame 0 evicted, frame 1 holding page 2
	if err := New(4, 8).SetState(good); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		edit func(*State)
	}{
		{"more frames than the cache", func(s *State) { s.Frames = make([]FrameState, 5) }},
		{"a free index past the created frames", func(s *State) { s.Free = append(s.Free, 2) }},
		{"a frame freed twice", func(s *State) { s.Free = append(s.Free, 0) }},
		{"a frame both free and in use", func(s *State) { s.Free = append(s.Free, 1) }},
		{"a frame neither free nor in use", func(s *State) { s.Free = nil }},
		{"a frame of another page size", func(s *State) { s.Frames[1].Tags = s.Frames[1].Tags[:4] }},
		{"a page in two frames", func(s *State) { s.Frames[0], s.Free = s.Frames[1], nil }},
	} {
		s := good
		s.Frames = append([]FrameState(nil), good.Frames...)
		s.Free = append([]int(nil), good.Free...)
		tc.edit(&s)
		if err := New(4, 8).SetState(s); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
