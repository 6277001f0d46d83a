package event

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestResourceUncontended(t *testing.T) {
	var r Resource
	if start := r.Acquire(100, 10); start != 100 {
		t.Errorf("uncontended acquire at 100 started at %d", start)
	}
	if r.NextFree() != 110 {
		t.Errorf("next free = %d, want 110", r.NextFree())
	}
	if r.WaitCycles() != 0 {
		t.Errorf("wait = %d, want 0", r.WaitCycles())
	}
}

func TestResourceQueueing(t *testing.T) {
	var r Resource
	r.Acquire(100, 10)
	start := r.Acquire(105, 10) // arrives while busy
	if start != 110 {
		t.Errorf("queued acquire started at %d, want 110", start)
	}
	if r.WaitCycles() != 5 {
		t.Errorf("wait = %d, want 5", r.WaitCycles())
	}
	// Arriving after idle: no wait.
	start = r.Acquire(200, 10)
	if start != 200 {
		t.Errorf("idle acquire started at %d, want 200", start)
	}
	if r.Acquisitions() != 3 {
		t.Errorf("acquisitions = %d, want 3", r.Acquisitions())
	}
	if r.BusyCycles() != 30 {
		t.Errorf("busy = %d, want 30", r.BusyCycles())
	}
}

func TestResourceHold(t *testing.T) {
	var r Resource
	if wait := r.Hold(50, 20); wait != 0 {
		t.Errorf("hold wait = %d, want 0", wait)
	}
	if wait := r.Hold(60, 20); wait != 10 {
		t.Errorf("hold wait = %d, want 10", wait)
	}
}

// TestResourceMonotonic: service start times never decrease for
// non-decreasing arrival times (the FIFO-server property).
func TestResourceMonotonic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var r Resource
		now, lastStart := int64(0), int64(-1)
		for i := 0; i < 200; i++ {
			now += rng.Int63n(20)
			occ := rng.Int63n(15) + 1
			start := r.Acquire(now, occ)
			if start < now || start < lastStart {
				return false
			}
			lastStart = start
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQueueOrdering(t *testing.T) {
	var q Queue
	a := &Actor{ID: 0, Clock: 30}
	b := &Actor{ID: 1, Clock: 10}
	c := &Actor{ID: 2, Clock: 20}
	q.Push(a)
	q.Push(b)
	q.Push(c)
	if got := q.Pop(); got != b {
		t.Errorf("first pop = actor %d, want 1", got.ID)
	}
	if got := q.Peek(); got != c {
		t.Errorf("peek = actor %d, want 2", got.ID)
	}
	if got := q.Pop(); got != c {
		t.Errorf("second pop = actor %d, want 2", got.ID)
	}
	if got := q.Pop(); got != a {
		t.Errorf("third pop = actor %d, want 0", got.ID)
	}
	if q.Pop() != nil {
		t.Error("empty queue should pop nil")
	}
}

func TestQueueTieBreakByID(t *testing.T) {
	var q Queue
	a := &Actor{ID: 5, Clock: 10}
	b := &Actor{ID: 2, Clock: 10}
	q.Push(a)
	q.Push(b)
	if got := q.Pop(); got.ID != 2 {
		t.Errorf("tie broken toward %d, want lower ID 2", got.ID)
	}
}

// TestQueueDrainSorted: popping yields a non-decreasing clock sequence.
func TestQueueDrainSorted(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var q Queue
		for i := 0; i < 100; i++ {
			q.Push(&Actor{ID: i, Clock: rng.Int63n(1000)})
		}
		last := int64(-1)
		for q.Len() > 0 {
			a := q.Pop()
			if a.Clock < last {
				return false
			}
			last = a.Clock
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestResourceReset(t *testing.T) {
	var r Resource
	r.Acquire(10, 10)
	r.Reset()
	if r.NextFree() != 0 || r.BusyCycles() != 0 || r.Acquisitions() != 0 {
		t.Error("reset did not clear resource state")
	}
}

// TestReschedulePattern mimics the machine loop: re-pushing an advanced
// actor keeps ordering coherent.
func TestReschedulePattern(t *testing.T) {
	var q Queue
	actors := []*Actor{{ID: 0}, {ID: 1}, {ID: 2}}
	for _, a := range actors {
		q.Push(a)
	}
	steps := map[int]int{}
	for i := 0; i < 30; i++ {
		a := q.Pop()
		steps[a.ID]++
		a.Clock += int64(10 * (a.ID + 1)) // CPU 0 fastest
		q.Push(a)
	}
	if steps[0] <= steps[2] {
		t.Errorf("fast actor stepped %d times, slow %d; want fast > slow", steps[0], steps[2])
	}
}

// TestResourceStateRoundTrip: State/SetState (the snapshot path)
// carries a resource's occupancy and tallies into a fresh resource.
func TestResourceStateRoundTrip(t *testing.T) {
	var r Resource
	r.Acquire(10, 5)
	r.Acquire(12, 3) // queued behind the first occupancy
	s := r.State()

	var fresh Resource
	fresh.SetState(s)
	if fresh.NextFree() != r.NextFree() || fresh.BusyCycles() != r.BusyCycles() || fresh.WaitCycles() != r.WaitCycles() {
		t.Errorf("restored resource differs: %+v vs %+v", fresh.State(), s)
	}
	// Identical behavior going forward: the next acquire waits the same.
	if a, b := fresh.Acquire(13, 2), r.Acquire(13, 2); a != b {
		t.Errorf("post-restore acquire start %d, want %d", a, b)
	}
}

// model is the brute-force reference the queue is checked against: the
// queued actors' clocks by ID, scanned linearly on every query.
type model map[int]int64

// top returns the (clock, id)-smallest queued actor's ID, or -1.
func (m model) top() int {
	best := -1
	for id, c := range m {
		if best < 0 || c < m[best] || (c == m[best] && id < best) {
			best = id
		}
	}
	return best
}

// second returns the smallest clock among actors other than the top.
func (m model) second() (int64, bool) {
	top, ok, s := m.top(), false, int64(0)
	for id, c := range m {
		if id != top && (!ok || c < s) {
			s, ok = c, true
		}
	}
	return s, ok
}

// TestQueueMatchesLinearScan drives the queue and the brute-force model
// through the same random Push/Update/Remove/Pop sequences — sparse IDs
// up to 511, clocks drawn from a handful of values so ties dominate —
// and checks Peek, TopID, Len and SecondClock against the model after
// every step.
func TestQueueMatchesLinearScan(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ids := rng.Perm(maxActors)[:1+rng.Intn(40)]
		ids = append(ids, 0, maxActors-1)
		actors := make(map[int]*Actor)
		for _, id := range ids {
			actors[id] = &Actor{ID: id}
		}
		clock := func() int64 {
			if rng.Intn(20) == 0 {
				return maxClock - rng.Int63n(4)
			}
			return rng.Int63n(6)
		}
		var q Queue
		m := model{}
		for step := 0; step < 400; step++ {
			id := ids[rng.Intn(len(ids))]
			a := actors[id]
			_, queued := m[id]
			switch op := rng.Intn(4); {
			case !queued && op < 3:
				a.Clock = clock()
				q.Push(a)
				m[id] = a.Clock
			case queued && op < 2:
				a.Clock = clock()
				q.Update(a)
				m[id] = a.Clock
			case queued && op == 2:
				q.Remove(a)
				delete(m, id)
			default:
				got, want := q.Pop(), m.top()
				if want < 0 {
					if got != nil {
						t.Fatalf("seed %d step %d: Pop on empty queue returned actor %d", seed, step, got.ID)
					}
					continue
				}
				if got == nil || got.ID != want {
					t.Fatalf("seed %d step %d: Pop returned %v, want actor %d", seed, step, got, want)
				}
				delete(m, want)
			}
			if q.Len() != len(m) {
				t.Fatalf("seed %d step %d: Len %d, want %d", seed, step, q.Len(), len(m))
			}
			if want, got := m.top(), q.Peek(); (want < 0) != (got == nil) || (got != nil && got.ID != want) {
				t.Fatalf("seed %d step %d: Peek returned %v, want actor %d", seed, step, got, want)
			}
			if want := m.top(); want < 0 {
				if id, ok := q.TopID(); ok {
					t.Fatalf("seed %d step %d: TopID on empty queue returned %d", seed, step, id)
				}
			} else if id, ok := q.TopID(); !ok || id != want {
				t.Fatalf("seed %d step %d: TopID = %d,%v, want %d,true", seed, step, id, ok, want)
			}
			ws, wok := m.second()
			if s, ok := q.SecondClock(); s != ws || ok != wok {
				t.Fatalf("seed %d step %d: SecondClock = %d,%v, want %d,%v", seed, step, s, ok, ws, wok)
			}
		}
	}
}

// mustPanic fails the test unless f panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

// TestQueuePackedRange: a clock or ID that does not fit the packed key
// panics instead of wrapping into another actor's key.
func TestQueuePackedRange(t *testing.T) {
	var q Queue
	mustPanic(t, "Push with a negative clock", func() { q.Push(&Actor{ID: 1, Clock: -1}) })
	mustPanic(t, "Push with a clock past maxClock", func() { q.Push(&Actor{ID: 1, Clock: maxClock + 1}) })
	mustPanic(t, "Push with ID 512", func() { q.Push(&Actor{ID: maxActors}) })
	mustPanic(t, "Push with a negative ID", func() { q.Push(&Actor{ID: -1}) })
	if q.Len() != 0 {
		t.Fatalf("rejected pushes left %d actors queued", q.Len())
	}

	a := &Actor{ID: 3, Clock: maxClock}
	q.Push(a)
	mustPanic(t, "Push of a queued actor", func() { q.Push(&Actor{ID: 3}) })
	a.Clock = maxClock + 1
	mustPanic(t, "Update past maxClock", func() { q.Update(a) })
	mustPanic(t, "Remove of an unqueued actor", func() { q.Remove(&Actor{ID: 2}) })
	a.Clock = maxClock
	if got := q.Pop(); got != a || q.Len() != 0 {
		t.Errorf("after the rejected calls Pop = %v with %d left, want actor 3 alone", got, q.Len())
	}
}

// TestQueueHotPathAllocs pins the per-reference operations of the event
// loop at zero allocations.
func TestQueueHotPathAllocs(t *testing.T) {
	var q Queue
	actors := make([]Actor, 32)
	for i := range actors {
		actors[i] = Actor{ID: i, Clock: int64(i * 7 % 5)}
		q.Push(&actors[i])
	}
	if n := testing.AllocsPerRun(100, func() {
		id, ok := q.TopID()
		if !ok {
			t.Fatal("TopID on a full queue reported it empty")
		}
		a := &actors[id]
		a.Clock += 3
		q.Update(a)
	}); n != 0 {
		t.Errorf("TopID+Update allocates %.1f times per call", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := q.SecondClock(); !ok {
			t.Fatal("SecondClock on a full queue reported no runner-up")
		}
	}); n != 0 {
		t.Errorf("SecondClock allocates %.1f times per call", n)
	}
}
