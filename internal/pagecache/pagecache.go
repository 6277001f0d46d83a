// Package pagecache implements the S-COMA page cache (paper Section 2.2):
// a region of main memory that caches remote pages at page granularity,
// with two-bit fine-grain access-control tags per block, an auxiliary
// translation table mapping local frames to global pages, and the paper's
// Least Recently Missed (LRM) replacement policy — the frame list is
// reordered only on remote misses, not on every reference.
package pagecache

import (
	"fmt"
	"slices"

	"rnuma/internal/addr"
)

// TagState is the fine-grain access-control state of one block in a frame
// (the paper's two bits per block).
type TagState uint8

const (
	// TagInvalid: access must be intercepted and fetched from home.
	TagInvalid TagState = iota
	// TagReadOnly: reads hit locally; writes need an upgrade.
	TagReadOnly
	// TagReadWrite: reads and writes hit locally.
	TagReadWrite
)

// String names the tag state.
func (t TagState) String() string {
	switch t {
	case TagInvalid:
		return "inv"
	case TagReadOnly:
		return "ro"
	case TagReadWrite:
		return "rw"
	}
	return "?"
}

// Policy selects the replacement policy.
type Policy int

const (
	// LRM is the paper's Least Recently Missed policy: the frame list is
	// reordered only on remote misses, approximating hardware miss
	// counters the OS samples at fault time (Section 4).
	LRM Policy = iota
	// LRU reorders on every access (hits included) — a conventional
	// policy requiring per-reference bookkeeping the paper's hardware
	// avoids; provided for the replacement-policy ablation.
	LRU
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case LRM:
		return "LRM"
	case LRU:
		return "LRU"
	}
	return "?"
}

// Frame is one page-cache frame: a page's worth of blocks plus tags.
type Frame struct {
	Page     addr.PageNum
	InUse    bool
	LastMiss int64 // LRM ordering key: time of the frame's last remote miss
	Tags     []TagState
	Dirty    []bool
	Versions []uint32
	// wasValid marks blocks that held data in this frame and were then
	// invalidated by coherence: a re-miss on such a block is a coherence
	// miss, not a cold fill.
	wasValid []bool
	valid    int
	dirty    int

	// MissStreak counts consecutive remote *coherence* misses with no
	// intervening local hit since the frame was (re)used — the demotion
	// extension's communication-page detector. Cold fills never count, so
	// a freshly relocated reuse page is not mistaken for a communication
	// page.
	MissStreak int
}

// ValidBlocks returns how many blocks currently hold data.
func (f *Frame) ValidBlocks() int { return f.valid }

// DirtyBlocks returns how many blocks must be flushed home on eviction.
func (f *Frame) DirtyBlocks() int { return f.dirty }

// DirtyList enumerates the offsets and versions of dirty blocks.
func (f *Frame) DirtyList() []BlockVersion {
	out := make([]BlockVersion, 0, f.dirty)
	for off, d := range f.Dirty {
		if d {
			out = append(out, BlockVersion{Off: off, Version: f.Versions[off]})
		}
	}
	return out
}

// BlockVersion pairs a block offset with the version held.
type BlockVersion struct {
	Off     int
	Version uint32
}

// Cache is the page cache plus its frame/page translation tables.
//
// Frames are created on first use, so a run builds only as many frames as
// the most pages it caches at one time, however large the configured
// capacity. Allocate hands
// out the most recently evicted frame first, then the lowest never-used
// index: the order a free stack holding every frame, highest index at the
// bottom, would give. New frames carve their block storage from chunks of
// frameChunk frames, the first reserved by New, so creating a frame rarely
// allocates and storage exceeds what the created frames use by less than
// a chunk.
type Cache struct {
	frames        []Frame // created frames; [len(frames), capacity) are never used
	capacity      int
	byPage        map[addr.PageNum]int
	free          []int // evicted frames, the most recently evicted last
	blocksPerPage int
	policy        Policy
	spare         Frame // block storage reserved for frames not yet created
	unused        Frame // what FrameAt answers for a never-used index

	hits         int64
	misses       int64
	allocations  int64
	replacements int64
}

// frameChunk is how many frames' block storage the cache reserves at once.
const frameChunk = 16

// New builds a page cache with the given number of page frames and the
// paper's LRM replacement policy.
func New(frames, blocksPerPage int) *Cache {
	return NewWithPolicy(frames, blocksPerPage, LRM)
}

// NewWithPolicy builds a page cache with an explicit replacement policy.
// It creates no frame: each is created when Allocate first needs it, and
// a reused frame is reset in place, so frame turnover on the simulator's
// page-operation path never allocates.
func NewWithPolicy(frames, blocksPerPage int, p Policy) *Cache {
	c := &Cache{
		capacity:      frames,
		byPage:        make(map[addr.PageNum]int, min(frames, frameChunk)),
		blocksPerPage: blocksPerPage,
		policy:        p,
	}
	c.reserve()
	return c
}

// Policy reports the replacement policy in force.
func (c *Cache) Policy() Policy { return c.policy }

// Frames returns the frame count.
func (c *Cache) Frames() int { return c.capacity }

// FreeFrames returns how many frames are unallocated.
func (c *Cache) FreeFrames() int { return len(c.free) + c.capacity - len(c.frames) }

// InUse returns how many frames hold pages.
func (c *Cache) InUse() int { return len(c.frames) - len(c.free) }

// FrameOf looks up the frame index holding a page (the reverse translation
// the node's page table would hold).
func (c *Cache) FrameOf(p addr.PageNum) (int, bool) {
	idx, ok := c.byPage[p]
	return idx, ok
}

// FrameAt returns the frame at an index for inspection; a never-used
// index answers a free, empty frame. The pointer is valid until the next
// Allocate.
func (c *Cache) FrameAt(idx int) *Frame {
	if idx < len(c.frames) {
		return &c.frames[idx]
	}
	if idx >= c.capacity {
		panic(fmt.Sprintf("pagecache: frame %d out of range [0,%d)", idx, c.capacity))
	}
	c.unused = Frame{}
	return &c.unused
}

// PickVictim returns the least-recently-missed in-use frame. It does not
// evict; the caller flushes the victim's dirty blocks first and then calls
// Evict. Returns false if every frame is free.
func (c *Cache) PickVictim() (int, bool) {
	best, found := -1, false
	var bestMiss int64
	for i := range c.frames {
		f := &c.frames[i]
		if !f.InUse {
			continue
		}
		if !found || f.LastMiss < bestMiss || (f.LastMiss == bestMiss && i < best) {
			best, bestMiss, found = i, f.LastMiss, true
		}
	}
	return best, found
}

// Evict releases a frame, returning the page it held. The caller must have
// flushed dirty blocks already.
func (c *Cache) Evict(idx int) addr.PageNum {
	f := c.FrameAt(idx)
	if !f.InUse {
		panic("pagecache: evicting free frame")
	}
	p := f.Page
	delete(c.byPage, p)
	f.InUse = false
	f.valid, f.dirty = 0, 0
	c.free = append(c.free, idx)
	c.replacements++
	return p
}

// Allocate assigns a free frame to the page (the caller must ensure one is
// free, evicting first if necessary) and initializes all tags to invalid.
func (c *Cache) Allocate(p addr.PageNum, now int64) int {
	if c.FreeFrames() == 0 {
		panic("pagecache: allocate with no free frames")
	}
	if _, dup := c.byPage[p]; dup {
		panic("pagecache: page already mapped")
	}
	var idx int
	if n := len(c.free); n > 0 {
		idx = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		idx = c.create()
	}
	f := &c.frames[idx]
	clear(f.Tags)
	clear(f.Dirty)
	clear(f.Versions)
	clear(f.wasValid)
	f.Page = p
	f.InUse = true
	f.LastMiss = now
	f.MissStreak = 0
	f.valid, f.dirty = 0, 0
	c.byPage[p] = idx
	c.allocations++
	return idx
}

// create makes the lowest never-used frame and returns its index.
func (c *Cache) create() int {
	if len(c.spare.Tags) == 0 {
		c.reserve()
	}
	n, s := c.blocksPerPage, &c.spare
	c.frames = append(c.frames, Frame{
		Tags:     s.Tags[:n:n],
		Dirty:    s.Dirty[:n:n],
		Versions: s.Versions[:n:n],
		wasValid: s.wasValid[:n:n],
	})
	s.Tags, s.Dirty, s.Versions, s.wasValid = s.Tags[n:], s.Dirty[n:], s.Versions[n:], s.wasValid[n:]
	return len(c.frames) - 1
}

// reserve sets aside block storage, and room in the frame table, for the
// next frameChunk frames (fewer near the capacity).
func (c *Cache) reserve() {
	n := min(c.capacity-len(c.frames), frameChunk)
	m := n * c.blocksPerPage
	c.spare = Frame{
		Tags:     make([]TagState, m),
		Dirty:    make([]bool, m),
		Versions: make([]uint32, m),
		wasValid: make([]bool, m),
	}
	c.frames = slices.Grow(c.frames, n)
}

// Tag returns the fine-grain tag for a block offset in a frame.
func (c *Cache) Tag(idx, off int) TagState { return c.frames[idx].Tags[off] }

// Version returns the version held for a block offset.
func (c *Cache) Version(idx, off int) uint32 { return c.frames[idx].Versions[off] }

// SetBlock installs or updates a block's tag, dirtiness, and version.
func (c *Cache) SetBlock(idx, off int, t TagState, dirty bool, ver uint32) {
	f := &c.frames[idx]
	old := f.Tags[off]
	if old == TagInvalid && t != TagInvalid {
		f.valid++
	}
	if old != TagInvalid && t == TagInvalid {
		f.valid--
	}
	wasDirty := f.Dirty[off]
	if !wasDirty && dirty {
		f.dirty++
	}
	if wasDirty && !dirty {
		f.dirty--
	}
	f.Tags[off] = t
	f.Dirty[off] = dirty
	f.Versions[off] = ver
}

// InvalidateBlock clears one block's tag (a coherence invalidation),
// returning whether it was dirty and its version.
func (c *Cache) InvalidateBlock(idx, off int) (wasDirty bool, ver uint32) {
	f := &c.frames[idx]
	if f.Tags[off] == TagInvalid {
		return false, 0
	}
	wasDirty, ver = f.Dirty[off], f.Versions[off]
	c.SetBlock(idx, off, TagInvalid, false, 0)
	f.wasValid[off] = true
	return wasDirty, ver
}

// TouchMiss records a remote miss on the frame, refreshing its LRM
// position.
func (c *Cache) TouchMiss(idx int, now int64) {
	c.frames[idx].LastMiss = now
}

// WasInvalidated reports whether the block previously held data in this
// frame and lost it to a coherence invalidation.
func (c *Cache) WasInvalidated(idx, off int) bool { return c.frames[idx].wasValid[off] }

// NoteCoherenceMiss grows the frame's communication-detector streak; the
// machine calls it for misses to previously-invalidated blocks only.
func (c *Cache) NoteCoherenceMiss(idx int) { c.frames[idx].MissStreak++ }

// TouchHit records a local hit. Under the paper's LRM policy this
// deliberately leaves the replacement ordering alone; under LRU it
// refreshes the frame. Either way it breaks the frame's miss streak (the
// page is demonstrably being reused locally).
func (c *Cache) TouchHit(idx int, now int64) {
	if c.policy == LRU {
		c.frames[idx].LastMiss = now
	}
	c.frames[idx].MissStreak = 0
}

// RecordHit and RecordMiss maintain access statistics.
func (c *Cache) RecordHit()  { c.hits++ }
func (c *Cache) RecordMiss() { c.misses++ }

// Hits, Misses, Allocations, Replacements expose statistics.
func (c *Cache) Hits() int64         { return c.hits }
func (c *Cache) Misses() int64       { return c.misses }
func (c *Cache) Allocations() int64  { return c.allocations }
func (c *Cache) Replacements() int64 { return c.replacements }

// FrameState is one frame's complete state in exported form (snapshot
// support). Free frames carry nil block slices: their contents are reset
// on the next Allocate, so only the free-stack position matters.
type FrameState struct {
	Page       addr.PageNum
	InUse      bool
	LastMiss   int64
	MissStreak int
	Tags       []TagState
	Dirty      []bool
	Versions   []uint32
	WasValid   []bool
}

// neverUsed reports whether a free frame's state is still zero, as a
// frame no page has held is.
func (fs *FrameState) neverUsed() bool {
	return fs.Page == 0 && fs.LastMiss == 0 && fs.MissStreak == 0
}

// State is the page cache's complete state in exported form. Free lists
// frame indices in stack order; its order decides which frame the next
// Allocate picks, so restores must preserve it exactly.
type State struct {
	Frames []FrameState
	Free   []int

	Hits, Misses, Allocations, Replacements int64
}

// State returns a deep copy of the cache's state (snapshot support). It
// covers the whole capacity: a never-used frame is a zero FrameState, and
// the never-used frames sit at the bottom of Free, highest index first.
func (c *Cache) State() State {
	s := State{
		Frames:       make([]FrameState, c.capacity),
		Hits:         c.hits,
		Misses:       c.misses,
		Allocations:  c.allocations,
		Replacements: c.replacements,
	}
	for i := c.capacity - 1; i >= len(c.frames); i-- {
		s.Free = append(s.Free, i)
	}
	s.Free = append(s.Free, c.free...)
	for i := range c.frames {
		f := &c.frames[i]
		fs := &s.Frames[i]
		fs.Page, fs.InUse, fs.LastMiss, fs.MissStreak = f.Page, f.InUse, f.LastMiss, f.MissStreak
		if f.InUse {
			fs.Tags = append([]TagState(nil), f.Tags...)
			fs.Dirty = append([]bool(nil), f.Dirty...)
			fs.Versions = append([]uint32(nil), f.Versions...)
			fs.WasValid = append([]bool(nil), f.wasValid...)
		}
	}
	return s
}

// SetState replaces the cache's state (snapshot restore), validating the
// snapshot's shape against this cache's frame count and page size. The
// per-frame valid/dirty tallies are recomputed from the restored tags.
// Only the frames below the free stack's never-used tail are created: the
// bottom run capacity-1, capacity-2, ... of frames whose state is still
// zero, which Allocate reaches last and in ascending order.
func (c *Cache) SetState(s State) error {
	if len(s.Frames) != c.capacity {
		return fmt.Errorf("pagecache: snapshot has %d frames, cache has %d", len(s.Frames), c.capacity)
	}
	if len(s.Free) > c.capacity {
		return fmt.Errorf("pagecache: snapshot frees %d of %d frames", len(s.Free), c.capacity)
	}
	onFree := make([]bool, c.capacity)
	for _, idx := range s.Free {
		if idx < 0 || idx >= c.capacity {
			return fmt.Errorf("pagecache: free index %d out of range", idx)
		}
		if onFree[idx] {
			return fmt.Errorf("pagecache: frame %d freed twice", idx)
		}
		if s.Frames[idx].InUse {
			return fmt.Errorf("pagecache: frame %d both free and in use", idx)
		}
		onFree[idx] = true
	}
	byPage := make(map[addr.PageNum]int)
	for i := range s.Frames {
		fs := &s.Frames[i]
		if !fs.InUse {
			if !onFree[i] {
				return fmt.Errorf("pagecache: frame %d neither free nor in use", i)
			}
			continue
		}
		if len(fs.Tags) != c.blocksPerPage || len(fs.Dirty) != c.blocksPerPage ||
			len(fs.Versions) != c.blocksPerPage || len(fs.WasValid) != c.blocksPerPage {
			return fmt.Errorf("pagecache: frame %d snapshot sized for %d blocks/page, cache has %d",
				i, len(fs.Tags), c.blocksPerPage)
		}
		if _, dup := byPage[fs.Page]; dup {
			return fmt.Errorf("pagecache: page %d mapped to two frames", fs.Page)
		}
		byPage[fs.Page] = i
	}
	tail := 0
	for tail < len(s.Free) && s.Free[tail] == c.capacity-1-tail && s.Frames[s.Free[tail]].neverUsed() {
		tail++
	}
	c.frames = c.frames[:0]
	for i := range s.Frames[:c.capacity-tail] {
		c.create()
		f, fs := &c.frames[i], &s.Frames[i]
		f.Page, f.InUse, f.LastMiss, f.MissStreak = fs.Page, fs.InUse, fs.LastMiss, fs.MissStreak
		if !fs.InUse {
			continue
		}
		copy(f.Tags, fs.Tags)
		copy(f.Dirty, fs.Dirty)
		copy(f.Versions, fs.Versions)
		copy(f.wasValid, fs.WasValid)
		for off := 0; off < c.blocksPerPage; off++ {
			if f.Tags[off] != TagInvalid {
				f.valid++
			}
			if f.Dirty[off] {
				f.dirty++
			}
		}
	}
	c.free = append(c.free[:0], s.Free[tail:]...)
	c.byPage = byPage
	c.hits, c.misses, c.allocations, c.replacements = s.Hits, s.Misses, s.Allocations, s.Replacements
	return nil
}
