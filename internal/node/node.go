// Package node assembles one SMP node of the DSM machine (paper Figure 1):
// four processors with private direct-mapped data caches, a shared
// split-transaction memory bus with snooping, a network interface, the
// remote access device, and the node's page table.
package node

import (
	"rnuma/internal/addr"
	"rnuma/internal/cache"
	"rnuma/internal/config"
	"rnuma/internal/event"
	"rnuma/internal/osmodel"
	"rnuma/internal/rad"
	"rnuma/internal/trace"
)

// CPU is one processor of a node.
type CPU struct {
	Node   addr.NodeID
	Index  int // index within the node
	Global int // index within the machine

	Finish int64
	Done   bool

	// Pending holds a reference whose compute gap pushed this CPU's clock
	// past another CPU's: the engine re-queues the CPU and processes the
	// reference when it is globally next (causal ordering).
	Pending    trace.Ref
	HasPending bool

	// AtBarrier marks a CPU parked at a barrier awaiting release (part of
	// the engine state a machine snapshot must capture).
	AtBarrier bool

	// Consumed counts trace records handed to this CPU so far, barriers
	// included and a Pending reference included (records the machine has
	// buffered but not handed over are not counted): it is the stream
	// cursor a forked replay seeks to before resuming.
	Consumed int64

	Actor event.Actor

	// Per-CPU counters.
	Refs int64
}

// Node is one SMP node.
type Node struct {
	ID   addr.NodeID
	CPUs []*CPU
	L1s  []*cache.L1

	Bus event.Resource // split-transaction memory bus
	NI  event.Resource // network interface

	RAD *rad.RAD
	PT  *osmodel.PageTable
}

// New builds a node per the system configuration.
func New(sys config.System, id addr.NodeID) *Node {
	n := &Node{
		ID:  id,
		RAD: rad.New(sys),
		PT:  osmodel.NewPageTable(),
	}
	for i := 0; i < sys.CPUsPerNode; i++ {
		global := int(id)*sys.CPUsPerNode + i
		c := &CPU{Node: id, Index: i, Global: global}
		c.Actor.ID = global
		n.CPUs = append(n.CPUs, c)
		n.L1s = append(n.L1s, cache.New(sys.L1Bytes, sys.Geometry.BlockBytes()))
	}
	return n
}

// NewestVersion scans the node's storage hierarchy for the freshest copy
// of a block: a Modified/Owned L1 line wins, then the block cache, then
// the page cache. Returns ok=false if the node holds no copy at all.
//
// idx is the node's L1 index for the block (all L1s share the mapping);
// frame/off locate the block in the page cache when the page is
// S-COMA-mapped (frame < 0 means not S-COMA-mapped).
func (n *Node) NewestVersion(idx int, b addr.BlockNum, frame, off int) (uint32, bool) {
	var best uint32
	found := false
	for _, l1 := range n.L1s {
		if st, ver := l1.Probe(idx, b); st.Dirty() {
			return ver, true // dirty L1 data is always the freshest
		} else if st.Valid() {
			best, found = ver, true
		}
	}
	if n.RAD.BlockCache != nil {
		if e, ok := n.RAD.BlockCache.Lookup(b); ok {
			if e.Dirty {
				return e.Version, true
			}
			if !found {
				best, found = e.Version, true
			}
		}
	}
	if frame >= 0 && n.RAD.PageCache != nil {
		if n.RAD.PageCache.Tag(frame, off) != 0 { // not TagInvalid
			ver := n.RAD.PageCache.Version(frame, off)
			if n.RAD.PageCache.FrameAt(frame).Dirty[off] {
				return ver, true
			}
			if !found {
				best, found = ver, true
			}
		}
	}
	return best, found
}
