package machine

import (
	"fmt"
	"testing"

	"rnuma/internal/addr"
	"rnuma/internal/config"
	"rnuma/internal/directory"
	"rnuma/internal/node"
	"rnuma/internal/osmodel"
	"rnuma/internal/trace"
)

// This file is the mechanical coherence-invariant checker: instead of
// eyeballing counters after a run, it stops a randomized simulation every
// checkEvery references and asserts the cross-layer protocol invariants
// directly against the directory, the L1s, the block caches, the page
// caches, and the page tables — for CC-NUMA, S-COMA, and R-NUMA alike.
// Directory transactions are atomic at the event instant (package doc),
// so between references the machine must always be in a state where every
// invariant holds exactly.

const checkEvery = 512

// checkedStream hands out its stream's records one at a time and calls
// pulled before each batch, so the machine refills between references,
// where the serial event loop is quiescent, and a checker hooked to
// pulled sees the machine there.
type checkedStream struct {
	trace.Stream
	pulled func()
}

func (s checkedStream) NextBatch(int) []trace.Ref {
	s.pulled()
	return s.Stream.NextBatch(1)
}

// checkedStreams wraps every stream to call check every checkEvery
// records pulled across them; pulled counts those records.
func checkedStreams(streams []trace.Stream, pulled *int64, check func()) {
	for i, s := range streams {
		streams[i] = checkedStream{s, func() {
			if *pulled++; *pulled%checkEvery == 0 {
				check()
			}
		}}
	}
}

// copyState summarizes what one node holds of one block.
type copyState struct {
	valid bool
	dirty bool
	// cleanVersions collects the versions of the node's clean copies (for
	// the staleness check).
	cleanVersions []uint32
}

// nodeCopy probes every level of a node's hierarchy for the block.
func nodeCopy(m *Machine, nd *node.Node, page addr.PageNum, b addr.BlockNum) copyState {
	var cs copyState
	idx := m.l1Index(nd, page, b)
	for _, l1 := range nd.L1s {
		if st, ver := l1.Probe(idx, b); st.Valid() {
			cs.valid = true
			if st.Dirty() {
				cs.dirty = true
			} else {
				cs.cleanVersions = append(cs.cleanVersions, ver)
			}
		}
	}
	if nd.RAD.BlockCache != nil {
		if e, ok := nd.RAD.BlockCache.Lookup(b); ok {
			cs.valid = true
			if e.Dirty {
				cs.dirty = true
			} else {
				cs.cleanVersions = append(cs.cleanVersions, e.Version)
			}
		}
	}
	if nd.RAD.PageCache != nil {
		if mp := nd.PT.Lookup(page); mp.Kind == osmodel.MappedSCOMA {
			off := m.g.OffsetOf(b)
			if nd.RAD.PageCache.Tag(mp.Frame, off) != 0 { // not TagInvalid
				cs.valid = true
				if nd.RAD.PageCache.FrameAt(mp.Frame).Dirty[off] {
					cs.dirty = true
				} else {
					cs.cleanVersions = append(cs.cleanVersions, nd.RAD.PageCache.Version(mp.Frame, off))
				}
			}
		}
	}
	return cs
}

// checkCoherence asserts the instantaneous cross-layer invariants.
func checkCoherence(m *Machine) error {
	// The directory's own internal invariants first.
	if err := m.dir.Check(); err != nil {
		return err
	}
	var firstErr error
	m.dir.Each(func(b addr.BlockNum, e *directory.Entry) {
		if firstErr != nil {
			return
		}
		page := m.g.PageOf(b)
		home := m.homeAt(page)
		for _, nd := range m.nodes {
			cs := nodeCopy(m, nd, page, b)
			// Single-owner: while a node holds the block exclusively, no
			// other node may hold ANY copy (the exclusive grant
			// invalidated them all).
			if e.Owner != addr.NoNode && nd.ID != e.Owner && cs.valid {
				firstErr = fmt.Errorf("block %d owned by node %d, but node %d still holds a copy (dirty=%v)",
					b, e.Owner, nd.ID, cs.dirty)
				return
			}
			// Dirty copies imply directory ownership: a node can only
			// dirty a block through a write that made it the owner, and
			// every ownership-losing path (recall, invalidation,
			// writeback, page flush) cleans or destroys the dirty copy.
			if cs.dirty && e.Owner != nd.ID {
				firstErr = fmt.Errorf("node %d holds a dirty copy of block %d, directory owner is %v",
					nd.ID, b, e.Owner)
				return
			}
			// No stale shared copy after writeback: once a node's
			// voluntary writeback armed the previously-held bit, the data
			// went home — the node must not still be holding a dirty copy
			// it supposedly wrote back.
			if e.PrevHeld&(1<<uint(nd.ID)) != 0 && cs.dirty {
				firstErr = fmt.Errorf("node %d wrote block %d back (prevHeld set) but still holds it dirty",
					nd.ID, b)
				return
			}
			// Staleness: while nobody holds the block exclusively, every
			// clean copy anywhere must match the version at home memory —
			// a clean copy that survived a remote write would be a
			// coherence hole. (The home node itself is exempt only through
			// Owner, handled above.)
			if e.Owner == addr.NoNode {
				for _, v := range cs.cleanVersions {
					if v != e.Version {
						firstErr = fmt.Errorf("node %d holds clean block %d at version %d, home has %d (home node %d)",
							nd.ID, b, v, e.Version, home)
						return
					}
				}
			}
		}
	})
	return firstErr
}

// checkMappings asserts page-table / page-cache consistency per node.
func checkMappings(m *Machine) error {
	for _, nd := range m.nodes {
		for p := 0; p < m.pagesHint(); p++ {
			mp := nd.PT.Lookup(addr.PageNum(p))
			switch mp.Kind {
			case osmodel.MappedSCOMA:
				if nd.RAD.Protocol == config.CCNUMA {
					return fmt.Errorf("node %d: CC-NUMA machine has an S-COMA mapping for page %d", nd.ID, p)
				}
				frame, ok := nd.RAD.PageCache.FrameOf(addr.PageNum(p))
				if !ok || frame != mp.Frame {
					return fmt.Errorf("node %d: page %d maps to frame %d, page cache says (%d, %v)",
						nd.ID, p, mp.Frame, frame, ok)
				}
				if got := nd.RAD.PageCache.FrameAt(mp.Frame).Page; got != addr.PageNum(p) {
					return fmt.Errorf("node %d: frame %d belongs to page %d, page table maps page %d",
						nd.ID, mp.Frame, got, p)
				}
			case osmodel.MappedCC:
				if nd.RAD.Protocol == config.SCOMA {
					return fmt.Errorf("node %d: S-COMA machine has a CC mapping for page %d", nd.ID, p)
				}
			}
		}
	}
	return nil
}

// counterSnapshot captures the monotone counters.
type counterSnapshot struct {
	refs, remote, refetch, faults, allocs, repls, relocs, demos, shoots int64
}

func snapshot(m *Machine) counterSnapshot {
	r := m.run
	return counterSnapshot{
		refs: r.Refs, remote: r.RemoteFetches, refetch: r.Refetches,
		faults: r.PageFaults, allocs: r.Allocations, repls: r.Replacements,
		relocs: r.Relocations, demos: r.Demotions, shoots: r.TLBShootdowns,
	}
}

func (s counterSnapshot) monotoneSince(prev counterSnapshot) error {
	type pair struct {
		name      string
		prev, now int64
	}
	for _, p := range []pair{
		{"refs", prev.refs, s.refs}, {"remote fetches", prev.remote, s.remote},
		{"refetches", prev.refetch, s.refetch}, {"page faults", prev.faults, s.faults},
		{"allocations", prev.allocs, s.allocs}, {"replacements", prev.repls, s.repls},
		{"relocations", prev.relocs, s.relocs}, {"demotions", prev.demos, s.demos},
		{"tlb shootdowns", prev.shoots, s.shoots},
	} {
		if p.now < p.prev {
			return fmt.Errorf("%s went backwards: %d -> %d", p.name, p.prev, p.now)
		}
	}
	return nil
}

// protocolCounters asserts the per-protocol counter constraints that must
// hold at every instant, not just at the end of the run.
func (s counterSnapshot) protocolConstraints(p config.Protocol) error {
	switch p {
	case config.CCNUMA:
		if s.allocs != 0 || s.repls != 0 || s.relocs != 0 || s.demos != 0 {
			return fmt.Errorf("CC-NUMA touched the page machinery: %+v", s)
		}
	case config.SCOMA:
		if s.relocs != 0 || s.demos != 0 {
			return fmt.Errorf("S-COMA relocated or demoted pages: %+v", s)
		}
	case config.RNUMA:
		if s.allocs != 0 {
			return fmt.Errorf("R-NUMA allocated on a fault (frames are claimed by relocation only): %+v", s)
		}
	}
	return nil
}

// TestProtocolInvariantsUnderRandomTraffic drives each protocol with
// adversarial random sharing and stops every checkEvery references to
// assert the full invariant set. The machine's version-truth verification
// (WithVerify) runs alongside, so dynamic read-staleness and static
// structural holes are checked in the same run.
func TestProtocolInvariantsUnderRandomTraffic(t *testing.T) {
	seeds := []int64{2, 9, 41}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, p := range []config.Protocol{config.CCNUMA, config.SCOMA, config.RNUMA} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			for _, seed := range seeds {
				m, err := New(tinySys(p), WithHomes(evenOddHomes), WithVerify(), WithPages(12))
				if err != nil {
					t.Fatal(err)
				}
				var (
					pulled int64
					prev   counterSnapshot
					failed error
				)
				check := func() {
					if failed != nil {
						return
					}
					now := snapshot(m)
					for _, err := range []error{
						checkCoherence(m),
						checkMappings(m),
						now.monotoneSince(prev),
						now.protocolConstraints(p),
					} {
						if err != nil {
							failed = fmt.Errorf("after %d refs: %w", pulled, err)
							return
						}
					}
					prev = now
				}
				// Wrap each stream so the checker runs between references
				// (the engine pulls a stream only after the previous
				// reference on that CPU completed, and the event loop is
				// serial, so the machine is quiescent here).
				streams := randomStreams(seed, 4, 12, 2500, 0.35)
				checkedStreams(streams, &pulled, check)
				if _, err := m.Run(streams); err != nil {
					t.Fatalf("seed %d: run: %v", seed, err)
				}
				check() // final state
				if failed != nil {
					t.Fatalf("seed %d: %v", seed, failed)
				}
			}
		})
	}
}

// TestInvariantCheckerDetectsCorruption guards the checker itself: a
// hand-corrupted directory entry must trip it (a checker that can never
// fail verifies nothing).
func TestInvariantCheckerDetectsCorruption(t *testing.T) {
	m, err := New(tinySys(config.RNUMA), WithHomes(evenOddHomes), WithPages(12))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(randomStreams(3, 4, 12, 600, 0.3)); err != nil {
		t.Fatal(err)
	}
	if err := checkCoherence(m); err != nil {
		t.Fatalf("healthy machine flagged: %v", err)
	}
	// Forge an owner that holds nothing while another node has copies.
	var victim addr.BlockNum
	found := false
	m.dir.Each(func(b addr.BlockNum, e *directory.Entry) {
		if !found && e.Owner == addr.NoNode && e.Sharers != 0 {
			for _, nd := range m.nodes {
				if cs := nodeCopy(m, nd, m.g.PageOf(b), b); cs.valid && int(nd.ID) != 0 {
					victim, found = b, true
				}
			}
		}
	})
	if !found {
		t.Skip("no suitable block to corrupt at this seed")
	}
	e := m.dir.Entry(victim)
	e.Owner = 0
	e.Sharers = 1 // directory-internally consistent, but caches disagree
	e.PrevHeld = 0
	if err := checkCoherence(m); err == nil {
		t.Fatal("corrupted ownership not detected by the invariant checker")
	}
}
