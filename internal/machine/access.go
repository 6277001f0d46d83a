package machine

import (
	"fmt"

	"rnuma/internal/addr"
	"rnuma/internal/blockcache"
	"rnuma/internal/cache"
	"rnuma/internal/node"
	"rnuma/internal/osmodel"
	"rnuma/internal/pagecache"
	"rnuma/internal/trace"
)

// l1Index computes the set index the node's CPUs use for a block: CC-NUMA
// and home-local pages index by global physical address; S-COMA pages by
// their page-cache frame address (the local physical address the CPUs
// actually issue). The scomaMapped fast path skips the per-node
// page-table lookup while no node anywhere has the page S-COMA-mapped —
// the overwhelmingly common case on this per-reference path.
func (m *Machine) l1Index(nd *node.Node, page addr.PageNum, b addr.BlockNum) int {
	if int(page) < len(m.scomaMapped) && m.scomaMapped[page] != 0 {
		if h := m.homeAt(page); h != addr.NoNode && h != nd.ID {
			if mp := nd.PT.Lookup(page); mp.Kind == osmodel.MappedSCOMA {
				key := uint32(mp.Frame*m.bpp + m.g.OffsetOf(b))
				return nd.L1s[0].Index(key)
			}
		}
	}
	return nd.L1s[0].Index(uint32(b))
}

// access processes one memory reference issued by CPU c at time t and
// returns its latency in cycles.
func (m *Machine) access(c *node.CPU, t int64, ref trace.Ref) int64 {
	nd := m.nodes[c.Node]
	m.run.Refs++
	b := m.g.BlockOf(ref.Page, int(ref.Off))
	home := m.HomeOf(ref.Page, nd.ID)
	local := home == nd.ID
	now := t

	if !local {
		if ref.Write {
			m.pageFlags[ref.Page] |= flagWriteShared
		} else {
			m.pageFlags[ref.Page] |= flagReadShared
		}
		if si := int(ref.Page)*m.sys.Nodes + int(nd.ID); !m.seen[si] {
			m.seen[si] = true
			m.run.RemotePages++
		}
		if nd.PT.Lookup(ref.Page).Kind == osmodel.Unmapped {
			now += m.pageFault(nd, now, ref.Page)
		}
	}

	idx := m.l1Index(nd, ref.Page, b)
	l1 := nd.L1s[c.Index]
	st, ver := l1.Lookup(idx, b)

	if !ref.Write {
		if st.Valid() {
			m.run.L1Hits++
			m.checkRead(b, ver, "l1")
			return now - t + m.costs.L1HitCycles
		}
		lat, fillVer, fillState := m.fillMiss(nd, c, now, ref.Page, b, false, local, home)
		// The mapping may have changed under us (R-NUMA relocation), so
		// recompute the index before installing.
		idx = m.l1Index(nd, ref.Page, b)
		m.l1Install(nd, c, idx, b, fillState, fillVer)
		m.checkRead(b, fillVer, "fill")
		return now - t + lat
	}

	// Write.
	if st == cache.Modified {
		m.run.L1Hits++
		l1.SetVersion(idx, b, m.bumpVersion(b))
		return now - t + m.costs.L1HitCycles
	}
	if st.Valid() {
		// Write hit on a Shared/Owned line: the data is here, but write
		// permission may not be; peers must be invalidated on the bus.
		lat := m.upgradePath(nd, c, now, ref.Page, b, idx, local, home)
		nv := m.bumpVersion(b)
		l1.Fill(idx, b, cache.Modified, nv) // in place: same block
		return now - t + lat
	}
	lat, _, _ := m.fillMiss(nd, c, now, ref.Page, b, true, local, home)
	idx = m.l1Index(nd, ref.Page, b)
	nv := m.bumpVersion(b)
	m.l1Install(nd, c, idx, b, cache.Modified, nv)
	return now - t + lat
}

// upgradePath handles a write to a block the CPU already holds read-only:
// invalidate peer copies on the bus and obtain node-level write permission
// from the directory if the node does not already have it.
func (m *Machine) upgradePath(nd *node.Node, c *node.CPU, now int64, page addr.PageNum, b addr.BlockNum, idx int, local bool, home addr.NodeID) int64 {
	start := nd.Bus.Acquire(now, m.costs.BusOccupancy)
	lat := start - now
	m.invalidatePeers(nd, c, idx, b)
	m.run.Upgrades++ // the write is serviced by a permission upgrade

	if local {
		// Home-node write: invalidate any remote copies via the directory.
		inval := m.dir.Upgrade(b, nd.ID)
		lat += m.costs.SRAMAccess
		if len(inval) > 0 {
			lat += m.applyInvalidations(nd, now+lat, page, b, inval)
			m.markWriteShared(page)
		}
		return lat
	}

	mp := nd.PT.Lookup(page)
	switch mp.Kind {
	case osmodel.MappedCC:
		if e, ok := nd.RAD.BlockCache.Lookup(b); ok && e.State == blockcache.ReadWrite {
			// Node already owns the block: a bus-local upgrade.
			lat += m.costs.SRAMAccess
			nd.RAD.BlockCache.Update(b, blockcache.ReadWrite, true, e.Version)
			return lat
		}
		// Node is a sharer (block-cache RO hit or L1-only copy): a
		// directory upgrade, never a refetch (no data transfer).
		lat += m.directoryUpgrade(nd, now+lat, page, b)
		// Restore read-write inclusion in the block cache.
		_, l1ver := nd.L1s[c.Index].Probe(idx, b)
		victim, ev := nd.RAD.BlockCache.Fill(b, blockcache.ReadWrite, true, l1ver)
		if ev {
			m.bcEvict(nd, now+lat, victim)
		}
		return lat
	case osmodel.MappedSCOMA:
		off := m.g.OffsetOf(b)
		pc := nd.RAD.PageCache
		if pc.Tag(mp.Frame, off) == pagecache.TagReadWrite {
			lat += m.costs.SRAMAccess
			return lat
		}
		lat += m.directoryUpgrade(nd, now+lat, page, b)
		pc.SetBlock(mp.Frame, off, pagecache.TagReadWrite, false, pc.Version(mp.Frame, off))
		pc.TouchMiss(mp.Frame, now+lat)
		return lat
	default:
		panic(fmt.Sprintf("machine: upgrade on unmapped remote page %d", page))
	}
}

// directoryUpgrade performs the remote upgrade transaction: request write
// permission from the home, invalidating all other holders.
func (m *Machine) directoryUpgrade(nd *node.Node, now int64, page addr.PageNum, b addr.BlockNum) int64 {
	home := m.homes[page]
	lat := m.networkRequest(nd, m.nodes[home], now, false)
	lat += m.costs.RemoteFetch - m.costs.DRAMAccess // permission only, no data
	inval := m.dir.Upgrade(b, nd.ID)
	if len(inval) > 0 {
		lat += m.applyInvalidations(nd, now+lat, page, b, inval)
	}
	m.markWriteShared(page)
	return lat
}

// invalidatePeers destroys other local CPUs' copies of a block during a
// bus write transaction.
func (m *Machine) invalidatePeers(nd *node.Node, c *node.CPU, idx int, b addr.BlockNum) {
	for i, l1 := range nd.L1s {
		if i == c.Index {
			continue
		}
		l1.Invalidate(idx, b)
	}
}

// fillMiss services an L1 miss: snoop the node bus, then dispatch to the
// home memory, the block cache, or the page cache according to the page's
// mapping. It returns the latency, the version supplied, and the L1 state
// to install.
func (m *Machine) fillMiss(nd *node.Node, c *node.CPU, now int64, page addr.PageNum, b addr.BlockNum, write, local bool, home addr.NodeID) (int64, uint32, cache.State) {
	idx := m.l1Index(nd, page, b)
	start := nd.Bus.Acquire(now, m.costs.BusOccupancy)
	lat := start - now

	// Snoop: an owned (dirty) peer copy supplies cache-to-cache. The
	// MBus-like protocol does not supply clean blocks cache-to-cache, so
	// those misses continue to the RAD or memory even if a peer holds the
	// data read-only (paper Section 4).
	for i, l1 := range nd.L1s {
		if i == c.Index {
			continue
		}
		if st, ver := l1.Probe(idx, b); st.Dirty() {
			m.run.C2CTransfers++
			if write {
				m.invalidatePeers(nd, c, idx, b)
			} else {
				l1.SetState(idx, b, cache.Owned)
			}
			return lat + m.costs.LocalFill, ver, cache.Shared
		}
	}
	if write {
		// The bus transaction invalidates peer clean copies.
		m.invalidatePeers(nd, c, idx, b)
	}

	if local {
		l, v := m.localFill(nd, now+lat, page, b, write)
		return lat + l, v, readState(write)
	}

	mp := nd.PT.Lookup(page)
	switch mp.Kind {
	case osmodel.MappedCC:
		l, v := m.ccFill(nd, now+lat, page, b, write)
		return lat + l, v, readState(write)
	case osmodel.MappedSCOMA:
		l, v := m.scomaFill(nd, now+lat, page, b, mp.Frame, write)
		return lat + l, v, readState(write)
	default:
		panic(fmt.Sprintf("machine: miss on unmapped remote page %d", page))
	}
}

func readState(write bool) cache.State {
	if write {
		return cache.Modified
	}
	return cache.Shared
}

// localFill services a miss to a page homed at this node: home memory
// supplies the data after the directory resolves any remote conflicts.
func (m *Machine) localFill(nd *node.Node, now int64, page addr.PageNum, b addr.BlockNum, write bool) (int64, uint32) {
	res := m.dir.Fetch(b, nd.ID, write)
	var lat int64
	if res.FromOwner != addr.NoNode {
		lat += m.recallFromOwner(nd, now, page, b, res.FromOwner, write)
	}
	if write && len(res.Invalidate) > 0 {
		lat += m.applyInvalidations(nd, now+lat, page, b, res.Invalidate)
		m.markWriteShared(page)
	}
	lat += m.costs.LocalFill
	m.run.LocalFills++
	return lat, m.dir.HomeVersion(b)
}

// ccFill services a miss on a CC-NUMA-mapped remote page: the RAD's block
// cache first, then a remote fetch from the home (paper Figure 2b).
func (m *Machine) ccFill(nd *node.Node, now int64, page addr.PageNum, b addr.BlockNum, write bool) (int64, uint32) {
	ctlStart := nd.RAD.Ctl.Acquire(now, m.costs.RADOccupancy)
	lat := ctlStart - now

	if e, ok := nd.RAD.BlockCache.Lookup(b); ok {
		if !write {
			m.run.BlockCacheHits++
			return lat + m.costs.BlockCacheHit(), e.Version
		}
		if e.State == blockcache.ReadWrite {
			m.run.BlockCacheHits++
			nd.RAD.BlockCache.Update(b, blockcache.ReadWrite, true, e.Version)
			return lat + m.costs.BlockCacheHit(), e.Version
		}
		// Write to a read-only cached block: upgrade (no data transfer,
		// not a refetch), then own it.
		lat += m.costs.BlockCacheHit()
		lat += m.directoryUpgrade(nd, now+lat, page, b)
		nd.RAD.BlockCache.Update(b, blockcache.ReadWrite, true, e.Version)
		m.run.BlockCacheHits++
		return lat, e.Version
	}

	// Block-cache miss: fetch from home.
	lat += m.costs.SRAMAccess
	fl, ver, refetch := m.remoteFetch(nd, now+lat, page, b, write)
	lat += fl

	st := blockcache.ReadOnly
	dirty := false
	if write {
		st, dirty = blockcache.ReadWrite, true
	}
	victim, ev := nd.RAD.BlockCache.Fill(b, st, dirty, ver)
	if ev {
		m.bcEvict(nd, now+lat, victim)
	}

	if refetch {
		m.addRefetch(nd.ID, page)
	}
	if nd.RAD.Reactive() && (refetch || m.sys.NaiveCounting) {
		n, crossed := nd.RAD.Counters.Record(page)
		if n > m.counterHigh {
			m.counterHigh = n
		}
		if crossed {
			// Threshold crossed: the OS relocates the page to S-COMA.
			if m.probe != nil {
				m.probe.Relocation(m.run.Refs, nd.ID, page, n)
			}
			lat += m.relocate(nd, now+lat, page)
		}
	}
	return lat, ver
}

// scomaFill services a miss on an S-COMA-mapped page: fine-grain tags
// decide between a page-cache hit, an upgrade, and a remote coherence
// fetch (paper Figure 3b).
func (m *Machine) scomaFill(nd *node.Node, now int64, page addr.PageNum, b addr.BlockNum, frame int, write bool) (int64, uint32) {
	ctlStart := nd.RAD.Ctl.Acquire(now, m.costs.RADOccupancy)
	lat := ctlStart - now
	pc := nd.RAD.PageCache
	off := m.g.OffsetOf(b)
	lat += m.costs.SRAMAccess // fine-grain tag check

	tag := pc.Tag(frame, off)
	if tag != pagecache.TagInvalid && (!write || tag == pagecache.TagReadWrite) {
		pc.RecordHit()
		pc.TouchHit(frame, now+lat)
		m.run.PageCacheHits++
		ver := pc.Version(frame, off)
		if write {
			pc.SetBlock(frame, off, pagecache.TagReadWrite, true, ver)
		}
		return lat + m.costs.LocalFill, ver
	}

	if tag == pagecache.TagReadOnly && write {
		// Upgrade: data is local, permission is not. The page cache
		// services the data, so this counts as a page-cache hit.
		pc.RecordMiss()
		pc.TouchMiss(frame, now+lat)
		m.run.PageCacheHits++
		lat += m.costs.LocalFill
		lat += m.directoryUpgrade(nd, now+lat, page, b)
		ver := pc.Version(frame, off)
		pc.SetBlock(frame, off, pagecache.TagReadWrite, true, ver)
		return lat, ver
	}

	// Invalid tag: inhibit memory, translate LPA to GPA, fetch from home.
	pc.RecordMiss()
	pc.TouchMiss(frame, now+lat)
	lat += m.costs.SRAMAccess // translation table
	fl, ver, refetch := m.remoteFetch(nd, now+lat, page, b, write)
	lat += fl
	t := pagecache.TagReadOnly
	dirty := false
	if write {
		t, dirty = pagecache.TagReadWrite, true
	}
	pc.SetBlock(frame, off, t, dirty, ver)
	if refetch {
		// A page that bounced out of the page cache and back can carry
		// previously-held state; record the refetch for statistics, but
		// S-COMA-mapped pages have nothing further to relocate.
		m.addRefetch(nd.ID, page)
	}
	return lat, ver
}

func (m *Machine) markWriteShared(page addr.PageNum) {
	m.pageFlags[page] |= flagWriteShared
}

// addRefetch records one refetch for the (node, page) pair in the dense
// counter table; finalize materializes it into run.RefetchByPage.
func (m *Machine) addRefetch(n addr.NodeID, p addr.PageNum) {
	m.run.Refetches++
	m.refetch.Add(n, p, 1)
}
