// Package directory implements the full-map, non-notifying directory
// coherence protocol shared by all three designs (paper Section 2), plus
// the refetch-detection machinery R-NUMA relies on (Section 3.1).
//
// Each block has a home node (derived from its page). The directory entry
// tracks the sharer set, an optional exclusive owner, the version of the
// data held at home memory, and the per-node "previously held" bits that
// make refetch detection work:
//
//   - Read-only copies are dropped silently by nodes (non-notifying), so
//     the sharer bit simply remains set; a later fetch request from a node
//     whose bit is still set is, by definition, a capacity/conflict
//     refetch.
//   - Read-write copies are written back on eviction; the voluntary
//     writeback sets the node's previously-held bit, so a later fetch is
//     again recognized as a refetch.
//   - Coherence invalidations clear both bits, so invalidation misses are
//     never misclassified as refetches. A write by any node clears all
//     previously-held bits: once the data changes, an absent node's next
//     miss is a coherence miss, not a capacity miss.
//
// Directory transactions are atomic: state transitions complete at the
// event instant while the machine accounts their latency, which keeps the
// protocol free of transient states and makes its invariants directly
// checkable (see the Check method).
//
// Entries live in a pooled slice in creation order, found through a dense
// block-indexed table, so fetching an entry costs one slice load and
// creating one allocates nothing at steady state. The trade-off is
// aliasing: pointers returned by Entry/Peek/Each, and the Invalidate
// slices returned by Fetch/Upgrade, are valid only until the next call
// that may create an entry or produce another invalidation set. The
// machine consumes both immediately, within the same protocol action.
package directory

import (
	"fmt"
	"math/bits"

	"rnuma/internal/addr"
	"rnuma/internal/dense"
)

// Entry is the directory state for one block.
type Entry struct {
	Sharers  uint32      // bitmask of nodes holding (as far as home knows) a copy
	Owner    addr.NodeID // exclusive owner, or addr.NoNode
	PrevHeld uint32      // nodes that voluntarily dropped a copy since the last write
	Version  uint32      // version of the data held at home memory
}

func bit(n addr.NodeID) uint32 { return 1 << uint(n) }

// Dir is the machine-wide directory (logically distributed across homes;
// the home node of a block is a property of its page, held by the machine).
type Dir struct {
	index   []int32         // block -> entry index + 1; 0 = no entry
	entries []Entry         // pooled entry storage, one per touched block
	blocks  []addr.BlockNum // parallel to entries: which block each describes
	nodes   int
	scratch []addr.NodeID // reused invalidation-target buffer
}

// New builds a directory for a machine with the given node count.
func New(nodes int) *Dir {
	return &Dir{nodes: nodes}
}

// find returns the entry index of a block, or -1 when it has none.
func (d *Dir) find(b addr.BlockNum) int {
	if int(b) < len(d.index) {
		return int(d.index[b]) - 1
	}
	return -1
}

// Entry returns the entry for a block, creating it on first touch. The
// pointer aliases pooled storage: it is valid only until the next call
// that may create an entry.
func (d *Dir) Entry(b addr.BlockNum) *Entry {
	if i := d.find(b); i >= 0 {
		return &d.entries[i]
	}
	d.index = dense.Grow(d.index, int(b)+1)
	d.entries = append(d.entries, Entry{Owner: addr.NoNode})
	d.blocks = append(d.blocks, b)
	d.index[b] = int32(len(d.entries))
	return &d.entries[len(d.entries)-1]
}

// Peek returns the entry without creating it. The pointer aliases pooled
// storage (see Entry).
func (d *Dir) Peek(b addr.BlockNum) (*Entry, bool) {
	if i := d.find(b); i >= 0 {
		return &d.entries[i], true
	}
	return nil, false
}

// Blocks returns how many blocks have directory state.
func (d *Dir) Blocks() int { return len(d.entries) }

// Each calls fn for every block with directory state, in creation order
// (invariant checkers and diagnostics).
func (d *Dir) Each(fn func(addr.BlockNum, *Entry)) {
	for i := range d.entries {
		fn(d.blocks[i], &d.entries[i])
	}
}

// FetchResult describes the actions a fetch triggered.
type FetchResult struct {
	// Refetch is true when the requester previously held the block and
	// lost it to a capacity/conflict eviction rather than an invalidation.
	Refetch bool
	// FromOwner is the previous exclusive owner that must supply (and, for
	// reads, downgrade; for writes, invalidate) its dirty copy, or NoNode
	// if home memory supplies the data.
	FromOwner addr.NodeID
	// Invalidate lists the other nodes whose copies a write must destroy
	// (excludes FromOwner, which is already being handled). The slice
	// aliases a buffer owned by the Dir and is valid only until the next
	// Fetch or Upgrade call.
	Invalidate []addr.NodeID
}

// targets expands a sharer mask into the reused scratch buffer, ascending
// by node id.
func (d *Dir) targets(mask uint32) []addr.NodeID {
	out := d.scratch[:0]
	for mask != 0 {
		n := bits.TrailingZeros32(mask)
		mask &^= 1 << uint(n)
		out = append(out, addr.NodeID(n))
	}
	d.scratch = out
	return out
}

// Fetch processes a data request from a node that does not currently hold
// the block. exclusive requests write permission. The machine must then
// move data/versions according to the result and call SetHomeVersion if
// the owner's dirty data lands at home.
func (d *Dir) Fetch(b addr.BlockNum, requester addr.NodeID, exclusive bool) FetchResult {
	e := d.Entry(b)
	var res FetchResult
	res.FromOwner = addr.NoNode
	res.Refetch = (e.Sharers|e.PrevHeld)&bit(requester) != 0

	if e.Owner != addr.NoNode && e.Owner != requester {
		res.FromOwner = e.Owner
	}

	if exclusive {
		mask := e.Sharers &^ bit(requester)
		if res.FromOwner != addr.NoNode {
			mask &^= bit(res.FromOwner)
		}
		if mask != 0 {
			res.Invalidate = d.targets(mask)
		}
		e.Sharers = bit(requester)
		e.Owner = requester
		// The write makes every absent node's next miss a coherence miss.
		e.PrevHeld = 0
	} else {
		if res.FromOwner != addr.NoNode {
			// Owner downgrades to shared; its dirty data is written home
			// by the machine (SetHomeVersion).
			e.Sharers |= bit(res.FromOwner)
		}
		e.Owner = addr.NoNode
		e.Sharers |= bit(requester)
		e.PrevHeld &^= bit(requester)
	}
	return res
}

// Upgrade processes a write-permission request from a node that still
// holds a read-only copy (no data transfer, never a refetch). It returns
// the nodes to invalidate; the slice aliases a buffer owned by the Dir
// and is valid only until the next Fetch or Upgrade call.
func (d *Dir) Upgrade(b addr.BlockNum, requester addr.NodeID) []addr.NodeID {
	e := d.Entry(b)
	mask := e.Sharers &^ bit(requester)
	if e.Owner != addr.NoNode && e.Owner != requester {
		mask |= bit(e.Owner)
	}
	var inval []addr.NodeID
	if mask != 0 {
		inval = d.targets(mask)
	}
	e.Sharers = bit(requester)
	e.Owner = requester
	e.PrevHeld = 0
	return inval
}

// WritebackVoluntary records a node's capacity/conflict eviction of a
// dirty block: the data returns home and the node is remembered as having
// previously held the block (enabling refetch detection for read-write
// data, the paper's extra directory state).
func (d *Dir) WritebackVoluntary(b addr.BlockNum, node addr.NodeID, version uint32) {
	e := d.Entry(b)
	if e.Owner == node {
		e.Owner = addr.NoNode
	}
	e.Sharers &^= bit(node)
	e.PrevHeld |= bit(node)
	e.Version = version
}

// DropShared records a node flushing a clean read-only copy during a page
// operation. The protocol is non-notifying for read-only data, so this
// intentionally leaves the sharer bit set: the next fetch from this node
// is a refetch, exactly the semantics Section 3.1 describes.
func (d *Dir) DropShared(b addr.BlockNum, node addr.NodeID) {
	// No state change: non-notifying.
	_ = b
	_ = node
}

// SetHomeVersion records dirty data arriving at home (owner downgrade or
// three-hop forward).
func (d *Dir) SetHomeVersion(b addr.BlockNum, version uint32) {
	d.Entry(b).Version = version
}

// HomeVersion returns the version stored at home memory.
func (d *Dir) HomeVersion(b addr.BlockNum) uint32 {
	if i := d.find(b); i >= 0 {
		return d.entries[i].Version
	}
	return 0
}

// ClearNode removes a node from a block's sharer/owner sets without
// setting previously-held state (used when an invalidation and a local
// flush race in page operations; the bits must not fake a refetch).
func (d *Dir) ClearNode(b addr.BlockNum, node addr.NodeID) {
	e := d.Entry(b)
	e.Sharers &^= bit(node)
	e.PrevHeld &^= bit(node)
	if e.Owner == node {
		e.Owner = addr.NoNode
	}
}

// State returns a deep copy of the directory's entry table as parallel
// block/entry slices in creation order (snapshot support).
func (d *Dir) State() ([]addr.BlockNum, []Entry) {
	blocks := make([]addr.BlockNum, len(d.blocks))
	copy(blocks, d.blocks)
	entries := make([]Entry, len(d.entries))
	copy(entries, d.entries)
	return blocks, entries
}

// SetState replaces the directory's entry table with the given parallel
// slices (snapshot restore). The slices are copied; duplicate blocks are
// rejected so a corrupted snapshot cannot alias two entries.
func (d *Dir) SetState(blocks []addr.BlockNum, entries []Entry) error {
	if len(blocks) != len(entries) {
		return fmt.Errorf("directory: %d blocks for %d entries", len(blocks), len(entries))
	}
	var index []int32
	for i, b := range blocks {
		index = dense.Grow(index, int(b)+1)
		if index[b] != 0 {
			return fmt.Errorf("directory: duplicate entry for block %d", b)
		}
		index[b] = int32(i + 1)
	}
	d.index = index
	d.blocks = append(d.blocks[:0], blocks...)
	d.entries = append(d.entries[:0], entries...)
	return nil
}

// Check verifies the directory invariants for every entry:
//
//  1. an exclusive owner implies the sharer set is exactly the owner,
//  2. previously-held bits are disjoint from the sharer set, except that
//     a sharer bit may persist for silently dropped read-only copies
//     (which is why rule 2 applies only to owned blocks),
//  3. owner ids are within range.
//
// It returns the first violation found.
func (d *Dir) Check() error {
	for i := range d.entries {
		b, e := d.blocks[i], &d.entries[i]
		if e.Owner != addr.NoNode {
			if int(e.Owner) < 0 || int(e.Owner) >= d.nodes {
				return fmt.Errorf("directory: block %d owner %d out of range", b, e.Owner)
			}
			if e.Sharers != bit(e.Owner) {
				return fmt.Errorf("directory: block %d owned by %d but sharers=%b", b, e.Owner, e.Sharers)
			}
			if e.PrevHeld&bit(e.Owner) != 0 {
				return fmt.Errorf("directory: block %d owner %d also in prevHeld", b, e.Owner)
			}
		}
		if e.Sharers>>uint(d.nodes) != 0 {
			return fmt.Errorf("directory: block %d sharer bits beyond %d nodes: %b", b, d.nodes, e.Sharers)
		}
	}
	return nil
}
