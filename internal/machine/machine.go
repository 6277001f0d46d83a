// Package machine is the whole-machine simulator: it assembles the nodes,
// directory, and network model, executes per-CPU reference streams with a
// conservative discrete-event engine, and implements the protocol flows of
// CC-NUMA (paper Figure 2b), S-COMA (Figure 3b), and R-NUMA (Figure 4b).
//
// The engine always advances the CPU with the globally smallest clock, so
// resource contention (bus, network interfaces, protocol controllers) is
// causally consistent at memory-reference granularity. Directory
// transactions are atomic at the event instant with their latencies
// accounted into the reference's completion time.
package machine

import (
	"fmt"
	"math"

	"rnuma/internal/addr"
	"rnuma/internal/blockcache"
	"rnuma/internal/cache"
	"rnuma/internal/config"
	"rnuma/internal/dense"
	"rnuma/internal/directory"
	"rnuma/internal/event"
	"rnuma/internal/node"
	"rnuma/internal/pagecache"
	"rnuma/internal/stats"
	"rnuma/internal/telemetry"
	"rnuma/internal/trace"
)

// relocMoved is one offset's merged block state during a relocation.
type relocMoved struct {
	present bool
	tag     pagecache.TagState
	dirty   bool
	ver     uint32
}

// Machine is one simulated DSM system.
type Machine struct {
	sys   config.System
	g     addr.Geometry
	bpp   int // blocks per page
	costs config.Costs

	nodes []*node.Node
	cpus  []*node.CPU // flattened, indexed by global CPU id
	dir   *directory.Dir

	// Per-page state lives in dense page-indexed slices (sized up front
	// from the workload's page count via WithPages, grown on demand past
	// it): access() consults homes and the sharing flags on every
	// reference, where per-access map hashing dominates the real work.
	homes     []addr.NodeID // page -> home node; NoNode = untouched
	pageFlags []uint8       // page -> sharing-traffic bits (Table 4)
	seen      []bool        // page*nodes+node -> node touched this remote page
	homeFn    func(addr.PageNum) addr.NodeID

	// scomaMapped counts, per page, how many nodes hold an S-COMA mapping.
	// l1Index consults it to skip the per-node page-table lookup for the
	// overwhelmingly common case of a page no node has relocated.
	scomaMapped []uint16

	// counterHigh is the high-water refetch count any R-NUMA counter has
	// reached. Runs at different thresholds evolve identical counts until
	// the first crossing, so a sweep's trunk run can pause while
	// counterHigh is still below a lower threshold and snapshot a state
	// every higher-threshold point shares (see RunUntilCounter).
	counterHigh uint32

	// Event-loop state, persistent across paused runs (snapshot/fork).
	q       event.Queue
	waiting []*node.CPU // CPUs parked at a barrier
	active  int
	started bool

	// Per-CPU reference buffers, indexed by global CPU id (see refBuffer).
	refs []refBuffer

	// relocate scratch, reused across calls so the relocation path does
	// not allocate: a blocks-per-page offset-indexed merge table plus
	// gather buffers for block-cache and L1 lookups.
	relocMoved []relocMoved
	relocUsed  []int
	bcScratch  []blockcache.Entry
	l1Scratch  []cache.Line

	run      *stats.Run
	refetch  *stats.PageCounter // per-(node,page) refetches, materialized at finalize
	perNodeR []int64            // per-node replacement counts, materialized at finalize

	// Telemetry probe (nil when disabled). probeNext caches the probe's
	// next window boundary — MaxInt64 with no probe — so the per-reference
	// cost of disabled telemetry is one always-false int64 compare.
	probe     *telemetry.Probe
	probeNext int64

	// Per-client attribution (nil for single-tenant runs): the RLE span
	// cursors track which traffic client issued each CPU's next record,
	// and every reference charges its counter deltas to exactly one
	// client, so the per-client totals sum to the machine-level counters
	// by construction.
	attr         *trace.Attribution
	attrCur      []attrCursor
	clientTotals []telemetry.Counters
	attrPrev     telemetry.Counters

	// Version model for correctness verification: every write gets a
	// globally unique version; with verification on, each read must
	// observe the latest version of its block. truth is a dense
	// block-indexed slice (zero version = never written).
	nextVersion uint32
	verify      bool
	truth       []uint32
	verifyErr   error
}

const (
	flagReadShared  uint8 = 1 << iota // page saw remote read traffic
	flagWriteShared                   // page saw remote write traffic
)

// Option customizes machine construction.
type Option func(*Machine)

// WithHomes supplies an explicit page-placement function, modeling a
// perfectly effective first-touch migration (the workloads know which node
// touches each page first, so this is equivalent to the paper's user
// directive without simulating the migration itself).
func WithHomes(fn func(addr.PageNum) addr.NodeID) Option {
	return func(m *Machine) { m.homeFn = fn }
}

// WithVerify enables the sequential-consistency version check: every read
// must return the version written by the last write to that block. The
// first violation is recorded and retrievable via Err.
func WithVerify() Option {
	return func(m *Machine) {
		m.verify = true
		m.truth = make([]uint32, m.g.BlocksFor(m.pagesHint()))
	}
}

// WithPages pre-sizes the dense per-page state (homes, sharing flags,
// refetch counters, page tables) for a shared segment of n pages. The
// slices still grow on demand, so the hint is an optimization, not a
// bound; workloads know their segment size and should always pass it.
func WithPages(n int) Option {
	return func(m *Machine) {
		if n <= 0 {
			return
		}
		m.growPages(addr.PageNum(n - 1))
		m.refetch = stats.NewPageCounter(m.sys.Nodes, n)
		if m.verify {
			m.truth = dense.Grow(m.truth, m.g.BlocksFor(n))
		}
		for _, nd := range m.nodes {
			nd.PT.Reserve(n)
		}
	}
}

// pagesHint returns the page bound the dense state is currently sized for.
func (m *Machine) pagesHint() int { return len(m.homes) }

// growPages extends every page-indexed slice to cover page p.
func (m *Machine) growPages(p addr.PageNum) {
	if int(p) < len(m.homes) {
		return
	}
	old := len(m.homes)
	m.homes = dense.Grow(m.homes, int(p)+1)
	for i := old; i < len(m.homes); i++ {
		m.homes[i] = addr.NoNode
	}
	m.pageFlags = dense.Grow(m.pageFlags, len(m.homes))
	m.seen = dense.Grow(m.seen, len(m.homes)*m.sys.Nodes)
	m.scomaMapped = dense.Grow(m.scomaMapped, len(m.homes))
}

// markSCOMA/unmarkSCOMA maintain the per-page count of nodes holding an
// S-COMA mapping (the l1Index fast-path flag).
func (m *Machine) markSCOMA(p addr.PageNum) {
	if int(p) >= len(m.scomaMapped) {
		m.scomaMapped = dense.Grow(m.scomaMapped, int(p)+1)
	}
	m.scomaMapped[p]++
}

func (m *Machine) unmarkSCOMA(p addr.PageNum) {
	if int(p) >= len(m.scomaMapped) || m.scomaMapped[p] == 0 {
		panic(fmt.Sprintf("machine: S-COMA unmap of untracked page %d", p))
	}
	m.scomaMapped[p]--
}

// ensureBlock extends the verification truth table to cover block b.
func (m *Machine) ensureBlock(b addr.BlockNum) {
	m.truth = dense.Grow(m.truth, int(b)+1)
}

// WithTelemetry attaches a sampling probe that closes an interval every
// cfg.Window references and records relocation events and per-window
// remote-traffic matrices. The run's stats.Run carries the resulting
// Timeline. A disabled configuration (Window <= 0) is a no-op, so callers
// can thread a zero Config through unconditionally.
func WithTelemetry(cfg telemetry.Config) Option {
	return func(m *Machine) {
		if !cfg.Enabled() {
			return
		}
		m.probe = telemetry.NewProbe(cfg, m.sys.Nodes)
		m.run.Timeline = m.probe.Timeline()
		m.probeNext = m.probe.NextBoundary()
	}
}

// attrCursor walks one CPU's attribution spans record by record.
type attrCursor struct {
	spans []trace.ClientSpan
	idx   int   // next span to load
	left  int64 // records remaining in the loaded span
}

// WithAttribution attaches per-client reference attribution (compiled
// multi-tenant scenarios): every processed record advances its CPU's span
// cursor, and each reference's counter deltas are charged to the client
// that issued it. The resulting per-client totals land in stats.Run.Clients
// and — when a telemetry probe is attached — in each interval's PerClient
// split. A nil attribution is a no-op.
func WithAttribution(a *trace.Attribution) Option {
	return func(m *Machine) {
		if a == nil {
			return
		}
		m.attr = a
		m.clientTotals = make([]telemetry.Counters, len(a.Clients))
		m.attrCur = make([]attrCursor, len(m.cpus))
		for i := range m.attrCur {
			if i < len(a.Spans) {
				m.attrCur[i].spans = a.Spans[i]
			}
		}
	}
}

// attrAdvance consumes one record from the CPU's span cursor and returns
// the client it belongs to. Exhaustion is an internal invariant violation:
// the compiler emits spans covering every record of every stream.
func (m *Machine) attrAdvance(cpu int) int32 {
	cur := &m.attrCur[cpu]
	if cur.left == 0 {
		if cur.idx >= len(cur.spans) {
			panic(fmt.Sprintf("machine: attribution spans for cpu %d exhausted", cpu))
		}
		cur.left = cur.spans[cur.idx].N
		cur.idx++
	}
	cur.left--
	return cur.spans[cur.idx-1].Client
}

// attrCharge charges the counter movement since the previous reference to
// the client that issued the one just processed.
func (m *Machine) attrCharge(cpu int) {
	id := m.attrAdvance(cpu)
	cur := m.counterSample()
	m.clientTotals[id].Add(cur.Sub(m.attrPrev))
	m.attrPrev = cur
}

// New builds a machine for the given system configuration.
func New(sys config.System, opts ...Option) (*Machine, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{
		sys:       sys,
		g:         sys.Geometry,
		bpp:       sys.Geometry.BlocksPerPage(),
		costs:     sys.Costs,
		dir:       directory.New(sys.Nodes),
		run:       stats.NewRun(),
		refetch:   stats.NewPageCounter(sys.Nodes, 0),
		perNodeR:  make([]int64, sys.Nodes),
		probeNext: math.MaxInt64,
	}
	for i := 0; i < sys.Nodes; i++ {
		nd := node.New(sys, addr.NodeID(i))
		m.nodes = append(m.nodes, nd)
		m.cpus = append(m.cpus, nd.CPUs...)
	}
	for _, o := range opts {
		o(m)
	}
	return m, nil
}

// System returns the machine's configuration.
func (m *Machine) System() config.System { return m.sys }

// Nodes exposes the node array (tests and diagnostics).
func (m *Machine) Nodes() []*node.Node { return m.nodes }

// Directory exposes the directory (tests and diagnostics).
func (m *Machine) Directory() *directory.Dir { return m.dir }

// Err returns the first verification failure, if verification was enabled.
func (m *Machine) Err() error { return m.verifyErr }

// HomeOf returns (and on first touch, assigns) the page's home node.
func (m *Machine) HomeOf(p addr.PageNum, toucher addr.NodeID) addr.NodeID {
	if int(p) < len(m.homes) {
		if h := m.homes[p]; h != addr.NoNode {
			return h
		}
	} else {
		m.growPages(p)
	}
	var h addr.NodeID
	switch {
	case m.homeFn != nil:
		h = m.homeFn(p)
	case m.sys.FirstTouch:
		h = toucher
	default:
		h = addr.NodeID(uint32(p) % uint32(len(m.nodes)))
	}
	m.homes[p] = h
	return h
}

// homeAt returns the page's assigned home, or NoNode if untouched.
func (m *Machine) homeAt(p addr.PageNum) addr.NodeID {
	if int(p) >= len(m.homes) {
		return addr.NoNode
	}
	return m.homes[p]
}

// refBuffer is one CPU's reference buffer, its storage included, so the
// machine's refs slice is one slab of every CPU's records, allocated on
// the first bind and reused after. A refill copies the stream's next
// batch in with one copy, and the event loop reads each record in place.
// Filling a batch at once issues the loads of all its cache lines
// together, where taking one record at a time from 32 interleaved
// streams fetches every new line alone, at the moment the loop first
// needs it.
type refBuffer struct {
	pos, n int // next record to hand out; records of the last refill
	store  [batchSize]trace.Ref
	stream trace.Stream
	src    trace.Batcher // stream as a Batcher; nil when it only has Next
}

// batchSize is the per-CPU refill unit, in records. A refill amortizes
// the stream's interface call (and, for trace files, the chunk-decode
// bookkeeping) across the batch; at 12 bytes a record, the base
// machine's 32 buffers hold 24 KiB, so they stay cache-resident.
// BenchmarkMachineReference measured 256 within noise of 64.
const batchSize = 64

// refill loads the stream's next batch into the buffer and rewinds it,
// reporting false at end of stream.
func (rb *refBuffer) refill() bool {
	n := 0
	if rb.src != nil {
		n = copy(rb.store[:], rb.src.NextBatch(batchSize))
	} else {
		for ; n < batchSize; n++ {
			r, ok := rb.stream.Next()
			if !ok {
				break
			}
			rb.store[n] = r
		}
	}
	rb.pos, rb.n = 0, n
	return n > 0
}

// Run executes one stream per CPU to completion and returns the collected
// statistics. The number of streams must equal the machine's CPU count.
func (m *Machine) Run(streams []trace.Stream) (*stats.Run, error) {
	if err := m.Start(streams); err != nil {
		return nil, err
	}
	return m.Finish()
}

// Start binds one stream per CPU and readies the event loop without
// executing anything. Use it with RunUntilRefs/RunUntilCounter to pause a
// run at a snapshot point; plain Run wraps Start+Finish.
func (m *Machine) Start(streams []trace.Stream) error {
	if m.started {
		return fmt.Errorf("machine: Start on an already-started machine")
	}
	if len(streams) != len(m.cpus) {
		return fmt.Errorf("machine: %d streams for %d CPUs", len(streams), len(m.cpus))
	}
	if m.attr != nil {
		if err := m.attr.Validate(); err != nil {
			return err
		}
		if len(m.attr.Spans) != len(m.cpus) {
			return fmt.Errorf("machine: attribution covers %d CPUs, machine has %d", len(m.attr.Spans), len(m.cpus))
		}
		if m.probe != nil {
			m.probe.EnableClients(m.attr.Clients)
		}
	}
	m.bind(streams)
	for _, c := range m.cpus {
		c.Actor.Clock = 0
		m.q.Push(&c.Actor)
	}
	m.active = len(m.cpus)
	m.started = true
	return nil
}

// bind attaches one stream per CPU to its reference buffer, empty.
func (m *Machine) bind(streams []trace.Stream) {
	if m.refs == nil {
		m.refs = make([]refBuffer, len(m.cpus))
	}
	for i, s := range streams {
		rb := &m.refs[i]
		rb.stream = s
		rb.src, _ = s.(trace.Batcher)
		rb.pos, rb.n = 0, 0
	}
}

// Finish runs the bound streams to completion and returns the collected
// statistics.
func (m *Machine) Finish() (*stats.Run, error) {
	if !m.started {
		return nil, fmt.Errorf("machine: Finish before Start")
	}
	m.loop(0, 0, false)
	m.finalize()
	return m.run, m.verifyErr
}

// RunUntilRefs executes until the machine has processed at least n
// references (or the run completes), pausing between references. It
// reports whether the run completed.
func (m *Machine) RunUntilRefs(n int64) (done bool, err error) {
	if !m.started {
		return false, fmt.Errorf("machine: run before Start")
	}
	if n <= 0 {
		return m.q.Len() == 0, nil
	}
	return m.loop(n, 0, false), nil
}

// RunUntilCounter executes until some R-NUMA refetch counter has reached
// the watermark w (or the run completes), pausing between references. A
// paused machine's counter state is identical to that of a run under any
// relocation threshold > w, which is what makes threshold-sweep forking
// sound: pause at w = T-1, snapshot, and the snapshot is a valid prefix
// for a threshold-T run. It reports whether the run completed.
func (m *Machine) RunUntilCounter(w uint32) (done bool, err error) {
	if !m.started {
		return false, fmt.Errorf("machine: run before Start")
	}
	return m.loop(0, w, true), nil
}

// release resumes every barrier-parked CPU at the latest arrival time:
// all still-running CPUs have reached the barrier.
func (m *Machine) release() {
	var maxT int64
	for _, w := range m.waiting {
		if w.Actor.Clock > maxT {
			maxT = w.Actor.Clock
		}
	}
	for _, w := range m.waiting {
		w.Actor.Clock = maxT
		w.AtBarrier = false
		m.q.Push(&w.Actor)
	}
	m.waiting = m.waiting[:0]
}

// loop is the discrete-event engine: always advance the CPU with the
// globally smallest clock. With pauseRefs > 0 it returns (done=false)
// once run.Refs reaches pauseRefs; with pauseCounter set it returns once
// counterHigh reaches pauseAt. Pauses land between references, with all
// machine state consistent, so a Snapshot taken at a pause point is a
// complete prefix of the run. It reports whether the run completed.
func (m *Machine) loop(pauseRefs int64, pauseAt uint32, pauseCounter bool) (done bool) {
	q := &m.q
	for {
		id, ok := q.TopID()
		if !ok {
			return true
		}
		if pauseRefs > 0 && m.run.Refs >= pauseRefs {
			return false
		}
		if pauseCounter && m.counterHigh >= pauseAt {
			return false
		}
		c := m.cpus[id]
		a := &c.Actor
		var ref *trace.Ref
		if c.HasPending {
			ref, c.HasPending = &c.Pending, false
		} else {
			// The next record is read in place; it stays valid until this
			// CPU's next refill.
			rb := &m.refs[id]
			if rb.pos == rb.n && !rb.refill() {
				c.Done = true
				c.Finish = a.Clock
				q.Remove(a)
				m.active--
				if len(m.waiting) > 0 && len(m.waiting) == m.active {
					m.release()
				}
				continue
			}
			ref = &rb.store[rb.pos]
			rb.pos++
			c.Consumed++
			if ref.Gap > 0 {
				// The compute gap advances this CPU's clock before the
				// reference issues; if another CPU is now strictly
				// earlier, defer the reference so events stay causally
				// ordered. Peeking the runner-up clock directly lets the
				// common (no-deferral) case fold the gap and the access
				// latency into a single heap update.
				a.Clock += int64(ref.Gap)
				if s, ok := q.SecondClock(); ok && s < a.Clock {
					q.Update(a)
					c.Pending, c.HasPending = *ref, true
					continue
				}
			}
		}
		if ref.Barrier {
			if m.attr != nil {
				// Barriers advance the span cursor (they are records) but
				// move no windowed counter, so there is nothing to charge.
				m.attrAdvance(c.Global)
			}
			q.Remove(a)
			c.AtBarrier = true
			m.waiting = append(m.waiting, c)
			if len(m.waiting) == m.active {
				m.release()
			}
			continue
		}
		lat := m.access(c, a.Clock, *ref)
		a.Clock += lat
		c.Refs++
		q.Update(a)
		if m.attr != nil {
			m.attrCharge(c.Global)
		}
		if m.run.Refs >= m.probeNext {
			m.probeFlush()
		}
	}
}

// probeFlush closes the telemetry window ending at the current reference
// count. Kept out of loop's body so the probe-off hot path stays a single
// compare with no call.
func (m *Machine) probeFlush() {
	if m.attr != nil {
		m.probe.FlushClients(m.counterSample(), m.run.Refs, m.clientTotals)
	} else {
		m.probe.Flush(m.counterSample(), m.run.Refs)
	}
	m.probeNext = m.probe.NextBoundary()
}

// counterSample projects the run's cumulative counters into the windowed
// subset the interval series tracks.
func (m *Machine) counterSample() telemetry.Counters {
	r := m.run
	return telemetry.Counters{
		Refs:           r.Refs,
		L1Hits:         r.L1Hits,
		LocalFills:     r.LocalFills,
		BlockCacheHits: r.BlockCacheHits,
		PageCacheHits:  r.PageCacheHits,
		RemoteFetches:  r.RemoteFetches,
		Refetches:      r.Refetches,
		Upgrades:       r.Upgrades,
		PageFaults:     r.PageFaults,
		Allocations:    r.Allocations,
		Replacements:   r.Replacements,
		Relocations:    r.Relocations,
		Demotions:      r.Demotions,
		InvalsSent:     r.InvalsSent,
		WritebacksHome: r.WritebacksHome,
	}
}

func (m *Machine) finalize() {
	if m.probe != nil {
		// Close the trailing partial window (a no-op if the run ended
		// exactly on a boundary).
		m.probeFlush()
	}
	if m.attr != nil {
		m.run.Clients = make([]stats.ClientStats, len(m.attr.Clients))
		for i, name := range m.attr.Clients {
			m.run.Clients[i] = stats.ClientStats{Name: name, Counters: m.clientTotals[i]}
		}
	}
	var exec int64
	for _, c := range m.cpus {
		if c.Finish > exec {
			exec = c.Finish
		}
	}
	m.run.ExecCycles = exec
	for _, nd := range m.nodes {
		m.run.BusWaitCycles += nd.Bus.WaitCycles()
		m.run.NIWaitCycles += nd.NI.WaitCycles()
		m.run.RADWaitCycles += nd.RAD.Ctl.WaitCycles()
	}
	// Materialize the dense hot-path counters into the sparse map form
	// the stats consumers read.
	const rw = flagReadShared | flagWriteShared
	m.refetch.Each(func(key stats.PageKey, c int64) {
		m.run.RefetchByPage[key] = c
		if m.pageFlags[key.Page]&rw == rw {
			m.run.RWRefetches += c
		}
	})
	for n, c := range m.perNodeR {
		if c != 0 {
			m.run.PerNodeReplacements[addr.NodeID(n)] = c
		}
	}
	if m.verify && m.verifyErr == nil {
		m.verifyErr = m.dir.Check()
	}
}

// bumpVersion mints a new version for a write to block b.
func (m *Machine) bumpVersion(b addr.BlockNum) uint32 {
	m.nextVersion++
	if m.verify {
		m.ensureBlock(b)
		m.truth[b] = m.nextVersion
	}
	return m.nextVersion
}

// checkRead validates an observed read version against the truth model.
func (m *Machine) checkRead(b addr.BlockNum, got uint32, where string) {
	if !m.verify || m.verifyErr != nil {
		return
	}
	var want uint32
	if int(b) < len(m.truth) {
		want = m.truth[b]
	}
	if got != want {
		m.verifyErr = fmt.Errorf("machine: stale read of block %d from %s: got version %d want %d", b, where, got, want)
	}
}
