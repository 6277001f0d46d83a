package machine

import (
	"fmt"

	"rnuma/internal/addr"
	"rnuma/internal/blockcache"
	"rnuma/internal/cache"
	"rnuma/internal/config"
	"rnuma/internal/directory"
	"rnuma/internal/event"
	"rnuma/internal/osmodel"
	"rnuma/internal/pagecache"
	"rnuma/internal/stats"
	"rnuma/internal/telemetry"
	"rnuma/internal/trace"
)

// Snapshot is a machine's complete simulation state at a pause point: a
// run paused with RunUntilRefs/RunUntilCounter can be captured, the
// capture restored into a freshly built machine (possibly under a
// different R-NUMA threshold — see RunUntilCounter for when that is
// sound), and the restored machine resumed with ResumeWith against
// streams seeked to each CPU's Consumed cursor. Every field is exported
// so the tracefile package can serialize snapshots without reaching into
// machine internals.
//
// A snapshot does not capture the reference streams themselves (the
// trace file or generator is the caller's to reopen), nor a WithHomes
// placement function: a fork must be constructed with the same homes
// function as the original, though pages already touched are pinned by
// the captured home map regardless.
type Snapshot struct {
	// Sys is the configuration the snapshot was taken under. Restore
	// accepts it into a machine whose configuration matches up to Name
	// and Threshold.
	Sys config.System

	NextVersion uint32
	CounterHigh uint32

	// Dense per-page machine state. Seen is page-major with a stride of
	// Sys.Nodes.
	Homes       []addr.NodeID
	PageFlags   []uint8
	Seen        []bool
	SCOMAMapped []uint16

	// Directory entry table in creation order (parallel slices).
	DirBlocks  []addr.BlockNum
	DirEntries []directory.Entry

	Nodes []NodeState
	CPUs  []CPUState

	// Run is the pre-finalize statistics accumulator; the dense refetch
	// table and per-node replacement counts are carried separately and
	// materialized into the run when the resumed machine finishes.
	Run           *stats.Run
	RefetchNodes  int
	RefetchCounts []int64
	PerNodeRepl   []int64

	// Probe is the telemetry probe's cursor, present exactly when the
	// machine ran with telemetry. The timeline itself rides on Run; the
	// cursor is what lets a restored machine continue its interval series
	// bit-identically even when the snapshot point falls mid-window (as
	// threshold-sweep fork points generally do).
	Probe *telemetry.ProbeState
}

// NodeState is one node's captured state.
type NodeState struct {
	L1s          []L1State
	Bus, NI, Ctl event.ResourceState

	// Optional RAD components; present exactly when the protocol has them.
	BlockCache *BlockCacheState
	PageCache  *pagecache.State
	Counters   *CountersState

	PT PTState
}

// L1State is one processor cache's captured lines and statistics.
type L1State struct {
	Lines        []cache.Line
	Hits, Misses int64
}

// BlockCacheState is a RAD block cache's captured contents.
type BlockCacheState struct {
	Entries      []blockcache.Entry
	Hits, Misses int64
}

// CountersState is an R-NUMA counter set's captured contents. The
// relocation threshold is deliberately absent: counters evolve
// identically under every threshold until the first crossing, and a fork
// restores the counts into a machine configured with its own threshold.
type CountersState struct {
	Counts           []uint32
	Crossings, Total int64
}

// PTState is one node's captured page table.
type PTState struct {
	Entries []osmodel.Mapping
	Faults  int64
}

// CPUState is one processor's captured engine state. Done/AtBarrier
// encode the CPU's event-queue membership (Done CPUs have left the
// queue, AtBarrier CPUs are parked awaiting release, everything else is
// runnable); Consumed is the stream cursor a forked replay seeks to.
type CPUState struct {
	Clock    int64
	Refs     int64
	Consumed int64
	Finish   int64

	Done       bool
	AtBarrier  bool
	HasPending bool
	Pending    trace.Ref
}

// Snapshot captures the machine's complete state. The machine must be
// started (snapshots are taken at pause points between references) and
// must not have verification enabled (the version-truth table is not
// captured).
func (m *Machine) Snapshot() (*Snapshot, error) {
	if !m.started {
		return nil, fmt.Errorf("machine: Snapshot before Start")
	}
	if m.verify {
		return nil, fmt.Errorf("machine: Snapshot with verification enabled is unsupported")
	}
	if m.attr != nil {
		return nil, fmt.Errorf("machine: Snapshot of an attributed (multi-tenant) run is unsupported")
	}
	s := &Snapshot{
		Sys:         m.sys,
		NextVersion: m.nextVersion,
		CounterHigh: m.counterHigh,
		Homes:       append([]addr.NodeID(nil), m.homes...),
		PageFlags:   append([]uint8(nil), m.pageFlags...),
		Seen:        append([]bool(nil), m.seen...),
		SCOMAMapped: append([]uint16(nil), m.scomaMapped...),
		Run:         m.run.Clone(),
		PerNodeRepl: append([]int64(nil), m.perNodeR...),
	}
	s.DirBlocks, s.DirEntries = m.dir.State()
	s.RefetchNodes, s.RefetchCounts = m.refetch.State()
	if m.probe != nil {
		st := m.probe.State()
		s.Probe = &st
	}
	s.Nodes = make([]NodeState, len(m.nodes))
	for i, nd := range m.nodes {
		ns := &s.Nodes[i]
		ns.L1s = make([]L1State, len(nd.L1s))
		for j, l1 := range nd.L1s {
			ns.L1s[j].Lines, ns.L1s[j].Hits, ns.L1s[j].Misses = l1.Snapshot()
		}
		ns.Bus = nd.Bus.State()
		ns.NI = nd.NI.State()
		ns.Ctl = nd.RAD.Ctl.State()
		if bc := nd.RAD.BlockCache; bc != nil {
			st := &BlockCacheState{}
			st.Entries, st.Hits, st.Misses = bc.State()
			ns.BlockCache = st
		}
		if pc := nd.RAD.PageCache; pc != nil {
			st := pc.State()
			ns.PageCache = &st
		}
		if ct := nd.RAD.Counters; ct != nil {
			st := &CountersState{}
			st.Counts, st.Crossings, st.Total = ct.State()
			ns.Counters = st
		}
		ns.PT.Entries, ns.PT.Faults = nd.PT.State()
	}
	s.CPUs = make([]CPUState, len(m.cpus))
	for i, c := range m.cpus {
		s.CPUs[i] = CPUState{
			Clock:      c.Actor.Clock,
			Refs:       c.Refs,
			Consumed:   c.Consumed,
			Finish:     c.Finish,
			Done:       c.Done,
			AtBarrier:  c.AtBarrier,
			HasPending: c.HasPending,
			Pending:    c.Pending,
		}
	}
	return s, nil
}

// compatible reports whether the snapshot's configuration matches the
// machine's. Name is informational and Threshold is the one knob a fork
// legitimately changes (the point of threshold-sweep forking), so both
// are normalized out of the comparison.
func (m *Machine) compatible(s *Snapshot) error {
	a, b := m.sys, s.Sys
	a.Name, b.Name = "", ""
	a.Threshold, b.Threshold = 0, 0
	if a != b {
		return fmt.Errorf("machine: snapshot configuration %q is incompatible with this machine (%q)", s.Sys.Name, m.sys.Name)
	}
	if (s.Probe != nil) != (m.probe != nil) {
		return fmt.Errorf("machine: snapshot telemetry presence (%v) differs from this machine's (%v)", s.Probe != nil, m.probe != nil)
	}
	return nil
}

// Restore loads a snapshot into a freshly built, not-yet-started machine
// whose configuration matches the snapshot's up to Name and Threshold.
// Component restores validate the snapshot's shape, so a corrupted
// snapshot is rejected rather than installed. After Restore, resume the
// run with ResumeWith.
func (m *Machine) Restore(s *Snapshot) error {
	if m.started {
		return fmt.Errorf("machine: Restore into an already-started machine")
	}
	if m.verify {
		return fmt.Errorf("machine: Restore into a machine with verification enabled is unsupported")
	}
	if err := m.compatible(s); err != nil {
		return err
	}
	pages := len(s.Homes)
	if len(s.PageFlags) != pages || len(s.SCOMAMapped) != pages || len(s.Seen) != pages*m.sys.Nodes {
		return fmt.Errorf("machine: snapshot per-page state inconsistent: %d homes, %d flags, %d scoma, %d seen",
			pages, len(s.PageFlags), len(s.SCOMAMapped), len(s.Seen))
	}
	if len(s.Nodes) != len(m.nodes) {
		return fmt.Errorf("machine: snapshot has %d nodes, machine has %d", len(s.Nodes), len(m.nodes))
	}
	if len(s.CPUs) != len(m.cpus) {
		return fmt.Errorf("machine: snapshot has %d CPUs, machine has %d", len(s.CPUs), len(m.cpus))
	}
	for i := range s.CPUs {
		if c := s.CPUs[i].Clock; !event.ValidClock(c) {
			return fmt.Errorf("machine: snapshot CPU %d clock %d outside the event queue's range", i, c)
		}
	}
	if len(s.PerNodeRepl) != len(m.nodes) {
		return fmt.Errorf("machine: snapshot has %d per-node replacement counts, machine has %d nodes", len(s.PerNodeRepl), len(m.nodes))
	}
	if s.Run == nil {
		return fmt.Errorf("machine: snapshot carries no run statistics")
	}
	refetch, err := stats.PageCounterFromState(s.RefetchNodes, s.RefetchCounts)
	if err != nil {
		return err
	}
	if s.RefetchNodes != m.sys.Nodes {
		return fmt.Errorf("machine: snapshot refetch table built for %d nodes, machine has %d", s.RefetchNodes, m.sys.Nodes)
	}
	// Every block with directory state lies in a page the snapshot's
	// per-page state covers; the directory indexes blocks densely, so the
	// segment is bounded and an out-of-range block is rejected before
	// either can size the index.
	if err := m.g.CheckSegment(pages); err != nil {
		return fmt.Errorf("machine: snapshot: %w", err)
	}
	for _, b := range s.DirBlocks {
		if int(b) >= pages*m.bpp {
			return fmt.Errorf("machine: snapshot directory block %d beyond its %d pages", b, pages)
		}
	}
	if err := m.dir.SetState(s.DirBlocks, s.DirEntries); err != nil {
		return err
	}
	for i, nd := range m.nodes {
		ns := &s.Nodes[i]
		if len(ns.L1s) != len(nd.L1s) {
			return fmt.Errorf("machine: snapshot node %d has %d L1s, machine has %d", i, len(ns.L1s), len(nd.L1s))
		}
		for j, l1 := range nd.L1s {
			if err := l1.SetSnapshot(ns.L1s[j].Lines, ns.L1s[j].Hits, ns.L1s[j].Misses); err != nil {
				return err
			}
		}
		nd.Bus.SetState(ns.Bus)
		nd.NI.SetState(ns.NI)
		nd.RAD.Ctl.SetState(ns.Ctl)
		if (ns.BlockCache != nil) != (nd.RAD.BlockCache != nil) {
			return fmt.Errorf("machine: snapshot node %d block-cache presence differs from the protocol's", i)
		}
		if ns.BlockCache != nil {
			if err := nd.RAD.BlockCache.SetState(ns.BlockCache.Entries, ns.BlockCache.Hits, ns.BlockCache.Misses); err != nil {
				return err
			}
		}
		if (ns.PageCache != nil) != (nd.RAD.PageCache != nil) {
			return fmt.Errorf("machine: snapshot node %d page-cache presence differs from the protocol's", i)
		}
		if ns.PageCache != nil {
			if err := nd.RAD.PageCache.SetState(*ns.PageCache); err != nil {
				return err
			}
		}
		if (ns.Counters != nil) != (nd.RAD.Counters != nil) {
			return fmt.Errorf("machine: snapshot node %d counter presence differs from the protocol's", i)
		}
		if ns.Counters != nil {
			nd.RAD.Counters.SetState(ns.Counters.Counts, ns.Counters.Crossings, ns.Counters.Total)
		}
		nd.PT.SetState(ns.PT.Entries, ns.PT.Faults)
	}
	if pages > 0 {
		m.growPages(addr.PageNum(pages - 1))
	}
	copy(m.homes, s.Homes)
	copy(m.pageFlags, s.PageFlags)
	copy(m.seen, s.Seen)
	copy(m.scomaMapped, s.SCOMAMapped)
	for i, c := range m.cpus {
		cs := &s.CPUs[i]
		c.Actor.Clock = cs.Clock
		c.Refs = cs.Refs
		c.Consumed = cs.Consumed
		c.Finish = cs.Finish
		c.Done = cs.Done
		c.AtBarrier = cs.AtBarrier
		c.HasPending = cs.HasPending
		c.Pending = cs.Pending
	}
	m.run = s.Run.Clone()
	m.refetch = refetch
	m.perNodeR = append(m.perNodeR[:0], s.PerNodeRepl...)
	m.nextVersion = s.NextVersion
	m.counterHigh = s.CounterHigh
	if m.probe != nil {
		// Re-attach the probe to the restored run's timeline and install
		// the captured cursor so the next flush continues the series.
		if err := m.probe.Restore(*s.Probe, m.run.Timeline); err != nil {
			return err
		}
		m.probeNext = m.probe.NextBoundary()
	}
	return nil
}

// ResumeWith binds streams to a restored machine and rebuilds the event
// loop at the captured instant, seeking each stream to its CPU's
// Consumed cursor. The streams must be fresh (not shared with the
// machine the snapshot was taken from). After ResumeWith, drive the run
// with Finish/RunUntilRefs/RunUntilCounter as usual.
func (m *Machine) ResumeWith(streams []trace.Stream) error {
	if m.started {
		return fmt.Errorf("machine: ResumeWith on an already-started machine")
	}
	if len(streams) != len(m.cpus) {
		return fmt.Errorf("machine: %d streams for %d CPUs", len(streams), len(m.cpus))
	}
	for i, c := range m.cpus {
		if c.Consumed == 0 {
			continue
		}
		if err := streams[i].SeekRecord(c.Consumed); err != nil {
			return fmt.Errorf("machine: seeking stream for CPU %d: %w", i, err)
		}
	}
	m.bind(streams)
	m.waiting = m.waiting[:0]
	m.active = 0
	for _, c := range m.cpus {
		if c.Done {
			continue
		}
		m.active++
		if c.AtBarrier {
			m.waiting = append(m.waiting, c)
		} else {
			m.q.Push(&c.Actor)
		}
	}
	if m.active > 0 && len(m.waiting) == m.active {
		return fmt.Errorf("machine: snapshot has every active CPU parked at a barrier")
	}
	m.started = true
	return nil
}
