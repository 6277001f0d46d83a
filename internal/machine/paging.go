package machine

import (
	"fmt"

	"rnuma/internal/addr"
	"rnuma/internal/blockcache"
	"rnuma/internal/cache"
	"rnuma/internal/config"
	"rnuma/internal/node"
	"rnuma/internal/osmodel"
	"rnuma/internal/pagecache"
)

// pageFault maps an unmapped remote page. CC-NUMA and R-NUMA map the page
// CC-NUMA with a soft trap (paper Figures 2b/4b); S-COMA allocates a
// page-cache frame, replacing a victim if none is free (Figure 3b).
func (m *Machine) pageFault(nd *node.Node, now int64, page addr.PageNum) int64 {
	m.run.PageFaults++
	switch nd.RAD.Protocol {
	case config.CCNUMA, config.RNUMA:
		nd.PT.MapCC(page)
		return m.costs.SoftTrap
	case config.SCOMA:
		return m.scomaAllocate(nd, now, page)
	}
	panic("machine: unknown protocol")
}

// scomaAllocate installs an S-COMA mapping for the page, evicting the
// least-recently-missed victim if the page cache is full. The cost follows
// Table 2: trap + TLB shootdown + bookkeeping + per-flushed-block work.
func (m *Machine) scomaAllocate(nd *node.Node, now int64, page addr.PageNum) int64 {
	pc := nd.RAD.PageCache
	flushed := 0
	if pc.FreeFrames() == 0 {
		flushed = m.replaceVictim(nd, now)
	}
	frame := pc.Allocate(page, now)
	nd.PT.MapSCOMA(page, frame)
	m.markSCOMA(page)
	m.run.Allocations++
	m.run.TLBShootdowns++
	m.run.FlushedBlocks += int64(flushed)
	cost := m.costs.PageOpCost(flushed)
	// The flush burst occupies the network interface without blocking
	// progress beyond the page operation itself.
	nd.NI.Hold(now, int64(flushed)*4)
	return cost
}

// replaceVictim evicts the LRM page from the page cache, flushing its
// blocks home, and returns how many blocks were flushed.
func (m *Machine) replaceVictim(nd *node.Node, now int64) int {
	pc := nd.RAD.PageCache
	vidx, ok := pc.PickVictim()
	if !ok {
		panic("machine: page cache full but no victim")
	}
	victim := pc.FrameAt(vidx).Page
	flushed := m.flushSCOMAPage(nd, victim, vidx)
	pc.Evict(vidx)
	nd.PT.Unmap(victim)
	m.unmarkSCOMA(victim)
	if nd.RAD.Reactive() {
		// A future remapping starts with a fresh counter (this is what
		// makes pages "bounce" slowly rather than thrash: a replaced page
		// must earn T new refetches before it relocates again).
		nd.RAD.Counters.Reset(victim)
	}
	m.run.Replacements++
	m.perNodeR[nd.ID]++
	return flushed
}

// flushSCOMAPage writes a page-cache frame's dirty blocks back to the home
// node and invalidates the node's L1 copies (the TLB shootdown destroys
// the local translation). Read-only blocks are dropped silently — the
// protocol is non-notifying, so the directory keeps the node in the sharer
// set and a later fetch counts as a refetch, per Section 3.1. It returns
// the number of blocks written home (the flush cost driver).
func (m *Machine) flushSCOMAPage(nd *node.Node, page addr.PageNum, frame int) int {
	pc := nd.RAD.PageCache
	f := pc.FrameAt(frame)
	flushed := 0
	for off := 0; off < m.bpp; off++ {
		if f.Tags[off] == pagecache.TagInvalid {
			continue
		}
		b := m.g.BlockOf(page, off)
		idx := m.l1Index(nd, page, b)
		newest := f.Versions[off]
		dirty := f.Dirty[off]
		for _, l1 := range nd.L1s {
			if st, ver := l1.Probe(idx, b); st.Valid() {
				if st.Dirty() {
					newest, dirty = ver, true
				}
				l1.Invalidate(idx, b)
			}
		}
		if f.Tags[off] == pagecache.TagReadWrite {
			// The node owned the block: write it back; the directory
			// remembers the voluntary drop for refetch detection.
			m.dir.WritebackVoluntary(b, nd.ID, newest)
			m.run.WritebacksHome++
			flushed++
			_ = dirty
		} else {
			m.dir.DropShared(b, nd.ID)
		}
	}
	return flushed
}

// relocate moves a CC-NUMA page into the S-COMA page cache after its
// refetch counter crossed the threshold (paper Figure 4b): flush the
// node's cached blocks of the page, unmap, allocate a frame (replacing a
// victim if needed), and map S-COMA. Only the blocks the node actually has
// cached are replicated into the frame, which is why relocation is cheap
// (Section 5.1).
func (m *Machine) relocate(nd *node.Node, now int64, page addr.PageNum) int64 {
	pc := nd.RAD.PageCache
	var lat int64
	if pc.FreeFrames() == 0 {
		flushed := m.replaceVictim(nd, now)
		m.run.FlushedBlocks += int64(flushed)
		lat += m.costs.PageOpCost(flushed)
	}

	// Gather the node's cached blocks of this page: block cache entries
	// plus any L1 lines (which may be newer). The merge table and gather
	// buffers are machine-owned scratch so this path stays allocation-free.
	if len(m.relocMoved) < m.bpp {
		m.relocMoved = make([]relocMoved, m.bpp)
	}
	m.relocUsed = m.relocUsed[:0]
	m.bcScratch = nd.RAD.BlockCache.AppendPageEntries(m.g, page, m.bcScratch[:0])
	for _, e := range m.bcScratch {
		t := pagecache.TagReadOnly
		if e.State == blockcache.ReadWrite {
			t = pagecache.TagReadWrite
		}
		off := m.g.OffsetOf(e.Block)
		m.relocMoved[off] = relocMoved{present: true, tag: t, dirty: e.Dirty, ver: e.Version}
		m.relocUsed = append(m.relocUsed, off)
	}
	for _, l1 := range nd.L1s {
		m.l1Scratch = l1.AppendFindPage(m.g, page, m.l1Scratch[:0])
		for _, ln := range m.l1Scratch {
			off := m.g.OffsetOf(ln.Block)
			mv := &m.relocMoved[off]
			if !mv.present {
				// L1-only copy (read-only block whose block-cache entry
				// was evicted silently).
				*mv = relocMoved{present: true, tag: pagecache.TagReadOnly, ver: ln.Version}
				m.relocUsed = append(m.relocUsed, off)
			}
			if ln.State.Dirty() {
				mv.tag, mv.dirty, mv.ver = pagecache.TagReadWrite, true, ln.Version
			}
		}
	}

	frame := pc.Allocate(page, now)
	for _, off := range m.relocUsed {
		mv := &m.relocMoved[off]
		pc.SetBlock(frame, off, mv.tag, mv.dirty, mv.ver)
		mv.present = false
	}
	nd.RAD.BlockCache.InvalidatePage(m.g, page)
	for _, l1 := range nd.L1s {
		l1.InvalidatePage(m.g, page)
	}
	nd.PT.Unmap(page)
	nd.PT.MapSCOMA(page, frame)
	m.markSCOMA(page)
	nd.RAD.Counters.Reset(page)

	m.run.Relocations++
	m.run.TLBShootdowns++
	lat += m.costs.PageOpCost(len(m.relocUsed))
	return lat
}

// l1Install fills an L1 line and handles the displaced victim: dirty
// victims write back into the level below (block cache, page cache, or
// home memory); clean victims drop silently.
func (m *Machine) l1Install(nd *node.Node, c *node.CPU, idx int, b addr.BlockNum, st cache.State, ver uint32) {
	victim, ev := nd.L1s[c.Index].Fill(idx, b, st, ver)
	if ev && victim.State.Dirty() {
		m.l1Writeback(nd, victim)
	}
}

// l1Writeback absorbs a dirty L1 eviction into the node's next level.
func (m *Machine) l1Writeback(nd *node.Node, v cache.Line) {
	page := m.g.PageOf(v.Block)
	home := m.homeAt(page)
	if home == addr.NoNode {
		panic(fmt.Sprintf("machine: writeback for untouched page %d", page))
	}
	if home == nd.ID {
		// Home-local data: the memory array absorbs it. The directory's
		// owner state for the home node is unaffected; the home version
		// is now the freshest.
		m.dir.SetHomeVersion(v.Block, v.Version)
		return
	}
	mp := nd.PT.Lookup(page)
	switch mp.Kind {
	case osmodel.MappedCC:
		// Inclusion for read-write blocks guarantees the block cache
		// still holds a frame for this block.
		if !nd.RAD.BlockCache.Update(v.Block, blockcache.ReadWrite, true, v.Version) {
			if m.verify && m.verifyErr == nil {
				m.verifyErr = fmt.Errorf("machine: read-write inclusion violated for block %d", v.Block)
			}
			m.dir.SetHomeVersion(v.Block, v.Version)
			m.run.WritebacksHome++
		}
	case osmodel.MappedSCOMA:
		nd.RAD.PageCache.SetBlock(mp.Frame, m.g.OffsetOf(v.Block), pagecache.TagReadWrite, true, v.Version)
	default:
		// The page was unmapped while this CPU still cached data; the
		// flush should have invalidated the line.
		if m.verify && m.verifyErr == nil {
			m.verifyErr = fmt.Errorf("machine: dirty L1 line for unmapped page %d", page)
		}
		m.dir.SetHomeVersion(v.Block, v.Version)
	}
}

// bcEvict handles a block-cache eviction: read-write victims write back to
// the home (a voluntary writeback, arming refetch detection) and must
// invalidate L1 copies to preserve inclusion; read-only victims drop
// silently and L1 copies survive (no inclusion for read-only blocks).
func (m *Machine) bcEvict(nd *node.Node, now int64, victim blockcache.Entry) {
	if victim.State != blockcache.ReadWrite {
		m.dir.DropShared(victim.Block, nd.ID)
		return
	}
	page := m.g.PageOf(victim.Block)
	idx := m.l1Index(nd, page, victim.Block)
	newest := victim.Version
	for _, l1 := range nd.L1s {
		if st, ver := l1.Probe(idx, victim.Block); st.Valid() {
			if st.Dirty() {
				newest = ver
			}
			l1.Invalidate(idx, victim.Block)
		}
	}
	m.dir.WritebackVoluntary(victim.Block, nd.ID, newest)
	m.run.WritebacksHome++
	nd.NI.Hold(now, m.costs.NIOccupancy)
}
