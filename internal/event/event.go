// Package event provides the discrete-event machinery of the simulator: a
// queue that always yields the processor with the globally smallest clock,
// and FIFO-server resources that model contention at the memory bus, the
// network interfaces, and the protocol controllers.
//
// The queue is a tournament (winner) tree with one fixed leaf per actor
// ID. A key packs an actor's clock above its ID, so a single unsigned
// compare orders actors by (clock, id), and every inner node holds the
// smaller key of its two children: the root names the next actor to run.
// Rescheduling an actor rewrites its leaf and replays the matches on the
// path to the root, one branch-free min per level, with nothing written
// back into the actors. The runner-up is the smallest key among the
// siblings of the winner's path.
//
// Because the engine only ever processes the event with the minimum
// timestamp, resource acquisitions are causally consistent: an actor that
// acquires a resource at time t can never be preempted retroactively by an
// actor whose clock is still behind t.
package event

import (
	"fmt"
	"math"
)

// Resource is a FIFO server: callers acquire it at some time and hold it
// for an occupancy; later callers queue behind earlier ones. It accumulates
// utilization statistics for contention reporting.
type Resource struct {
	nextFree     int64
	busyCycles   int64
	waitCycles   int64
	acquisitions int64
}

// Acquire requests the resource at time now for occupancy cycles. It
// returns the time service starts (>= now); the resource stays busy until
// start+occupancy.
func (r *Resource) Acquire(now, occupancy int64) (start int64) {
	start = now
	if r.nextFree > start {
		start = r.nextFree
	}
	r.waitCycles += start - now
	r.busyCycles += occupancy
	r.acquisitions++
	r.nextFree = start + occupancy
	return start
}

// Hold occupies the resource without advancing the caller: it acquires at
// now and returns only the queueing delay the caller observed. Use it for
// pipelined actions (e.g., posting a writeback) where the caller does not
// wait for service completion.
func (r *Resource) Hold(now, occupancy int64) (wait int64) {
	start := r.Acquire(now, occupancy)
	return start - now
}

// NextFree reports when the resource becomes idle.
func (r *Resource) NextFree() int64 { return r.nextFree }

// BusyCycles reports total cycles of occupancy accumulated.
func (r *Resource) BusyCycles() int64 { return r.busyCycles }

// WaitCycles reports total queueing delay callers experienced.
func (r *Resource) WaitCycles() int64 { return r.waitCycles }

// Acquisitions reports how many times the resource was acquired.
func (r *Resource) Acquisitions() int64 { return r.acquisitions }

// Reset returns the resource to its initial idle state.
func (r *Resource) Reset() { *r = Resource{} }

// ResourceState is a Resource's complete state in exported form, so
// machine snapshots can capture and restore the in-flight occupancy and
// accumulated contention statistics.
type ResourceState struct {
	NextFree     int64
	BusyCycles   int64
	WaitCycles   int64
	Acquisitions int64
}

// State returns the resource's current state (snapshot support).
func (r *Resource) State() ResourceState {
	return ResourceState{
		NextFree:     r.nextFree,
		BusyCycles:   r.busyCycles,
		WaitCycles:   r.waitCycles,
		Acquisitions: r.acquisitions,
	}
}

// SetState replaces the resource's state (snapshot restore).
func (r *Resource) SetState(s ResourceState) {
	r.nextFree = s.NextFree
	r.busyCycles = s.BusyCycles
	r.waitCycles = s.WaitCycles
	r.acquisitions = s.Acquisitions
}

// Actor is anything with a clock that the engine schedules: in this
// simulator, one per processor.
type Actor struct {
	ID    int
	Clock int64
}

const (
	// idBits is the width of the ID field of a packed key: 9 bits cover
	// the largest machine config accepts, 32 nodes x 16 CPUs.
	idBits = 9
	// maxActors bounds actor IDs: a queue holds actors 0..maxActors-1.
	maxActors = 1 << idBits
	idMask    = maxActors - 1
	// maxClock is the largest clock a queued actor may carry. A larger or
	// negative clock would wrap into another actor's key, so it panics.
	maxClock = 1<<(63-idBits) - 1
	// empty is the key of a leaf with no actor queued: it loses every
	// match, and a root holding it means the queue is empty.
	empty = math.MaxUint64
)

// Queue orders queued actors by clock, ties broken by ID for determinism.
// The zero value is ready to use.
//
// The simulator performs one queue operation per memory reference, so
// the structure is built for Update and SecondClock: both walk one
// leaf-to-root path of a tree sized to the largest ID pushed (five levels
// for the base machine's 32 CPUs) and allocate nothing.
type Queue struct {
	tree   []uint64 // tree[1] is the root; the leaf of ID i is tree[leaves+i]
	actors []*Actor // by ID; nil when not queued
	leaves int      // a power of two, or 0 before the first Push
	n      int      // queued actors
}

// ValidClock reports whether a queue key can carry the clock c, that is
// whether c lies in [0, 2^54).
func ValidClock(c int64) bool { return uint64(c) <= maxClock }

// key packs an actor's (clock, id) ordering into one word.
func key(a *Actor) uint64 {
	if !ValidClock(a.Clock) {
		clockOutOfRange(a)
	}
	return uint64(a.Clock)<<idBits | uint64(a.ID)
}

func clockOutOfRange(a *Actor) {
	panic(fmt.Sprintf("event: actor %d clock %d outside [0, %d]", a.ID, a.Clock, int64(maxClock)))
}

// set stores leaf id's key and replays the matches up to the root: each
// parent's key is the smaller of the key just computed and its sibling's.
func (q *Queue) set(id int, k uint64) {
	t := q.tree
	i := q.leaves + id
	t[i] = k
	for i > 1 {
		k = min(k, t[i^1])
		i >>= 1
		t[i] = k
	}
}

// grow widens the tree to at least n leaves, keeping every queued key.
func (q *Queue) grow(n int) {
	leaves := 1
	for leaves < n {
		leaves <<= 1
	}
	tree := make([]uint64, 2*leaves)
	for i := range tree {
		tree[i] = empty
	}
	copy(tree[leaves:], q.tree[q.leaves:])
	for i := leaves - 1; i >= 1; i-- {
		tree[i] = min(tree[2*i], tree[2*i+1])
	}
	actors := make([]*Actor, leaves)
	copy(actors, q.actors)
	q.tree, q.actors, q.leaves = tree, actors, leaves
}

// Push inserts an actor into the queue. Its ID must lie in [0, 512) and
// not be queued already.
func (q *Queue) Push(a *Actor) {
	if a.ID < 0 || a.ID >= maxActors {
		panic(fmt.Sprintf("event: actor ID %d outside [0, %d)", a.ID, maxActors))
	}
	k := key(a)
	if a.ID >= q.leaves {
		q.grow(a.ID + 1)
	}
	if q.actors[a.ID] != nil {
		panic(fmt.Sprintf("event: actor %d already queued", a.ID))
	}
	q.actors[a.ID] = a
	q.n++
	q.set(a.ID, k)
}

// Pop removes and returns the actor with the smallest clock, or nil if the
// queue is empty.
func (q *Queue) Pop() *Actor {
	a := q.Peek()
	if a != nil {
		q.Remove(a)
	}
	return a
}

// Peek returns the actor with the smallest clock without removing it.
func (q *Queue) Peek() *Actor {
	if q.n == 0 {
		return nil
	}
	return q.actors[q.tree[1]&idMask]
}

// TopID returns the ID of the actor Peek would return, with ok=false when
// the queue is empty. The ID is read out of the root key, so a caller
// that keeps its own per-ID state reaches it without a load through the
// actor.
func (q *Queue) TopID() (id int, ok bool) {
	if q.n == 0 {
		return 0, false
	}
	return int(q.tree[1] & idMask), true
}

// Update restores the queue order after a queued actor's clock changed in
// place.
func (q *Queue) Update(a *Actor) { q.set(a.ID, key(a)) }

// SecondClock returns the smallest clock among actors other than the
// current top, with ok=false when the queue holds at most one actor. The
// event loop uses it to decide whether advancing the top actor's clock
// would overtake anyone — without paying an Update to find out. It reads
// the tree, not the actors, so it stays valid while the top actor's Clock
// field runs ahead of its last Update.
func (q *Queue) SecondClock() (int64, bool) {
	if q.n < 2 {
		return 0, false
	}
	t := q.tree
	i := q.leaves + int(t[1]&idMask)
	s := uint64(empty)
	for i > 1 {
		s = min(s, t[i^1])
		i >>= 1
	}
	return int64(s >> idBits), true
}

// Remove deletes a queued actor regardless of its position.
func (q *Queue) Remove(a *Actor) {
	if a.ID < 0 || a.ID >= q.leaves || q.actors[a.ID] != a {
		panic(fmt.Sprintf("event: actor %d is not queued", a.ID))
	}
	q.actors[a.ID] = nil
	q.n--
	q.set(a.ID, empty)
}

// Len reports the number of queued actors.
func (q *Queue) Len() int { return q.n }
