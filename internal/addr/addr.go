// Package addr defines the address arithmetic shared by every component of
// the DSM machine model: global page and block numbering, and the geometry
// (block size, page size) that converts between them.
//
// The simulator models a single global shared segment. Workloads emit
// references as (page, block-offset) pairs in that segment; the per-node
// operating system decides whether a page is mapped CC-NUMA (references go
// to the home node's global physical address) or S-COMA (references go to a
// local page-cache frame). Because the coherence protocol operates on
// global block numbers either way, the simulator carries global numbers
// throughout and keeps the local-physical-address indirection implicit in
// the page-cache frame table, exactly as the S-COMA translation table would.
package addr

import "fmt"

// PageNum identifies a page in the global shared segment.
type PageNum uint32

// BlockNum identifies a coherence block in the global shared segment.
type BlockNum uint32

// NodeID identifies an SMP node of the machine.
type NodeID int32

// NoNode marks the absence of a node (e.g., no exclusive owner).
const NoNode NodeID = -1

// Geometry fixes the block and page sizes of the machine. The paper's base
// system uses 32-byte coherence blocks (Sparc MBus era) and 4-Kbyte pages.
type Geometry struct {
	BlockShift uint // log2(block bytes)
	PageShift  uint // log2(page bytes)
}

// Default is the base geometry used throughout the paper's evaluation.
var Default = Geometry{BlockShift: 5, PageShift: 12}

// BlockBytes returns the coherence block size in bytes.
func (g Geometry) BlockBytes() int { return 1 << g.BlockShift }

// PageBytes returns the page size in bytes.
func (g Geometry) PageBytes() int { return 1 << g.PageShift }

// BlocksPerPage returns the number of coherence blocks per page.
func (g Geometry) BlocksPerPage() int { return 1 << (g.PageShift - g.BlockShift) }

// BlockOf converts a page number and a block offset within that page into a
// global block number.
func (g Geometry) BlockOf(p PageNum, off int) BlockNum {
	return BlockNum(uint32(p)<<(g.PageShift-g.BlockShift) + uint32(off))
}

// PageOf returns the page containing the given block.
func (g Geometry) PageOf(b BlockNum) PageNum {
	return PageNum(uint32(b) >> (g.PageShift - g.BlockShift))
}

// OffsetOf returns the block's index within its page.
func (g Geometry) OffsetOf(b BlockNum) int {
	return int(uint32(b) & uint32(g.BlocksPerPage()-1))
}

// BlocksFor returns the number of blocks in a segment of `pages` pages:
// the size of a dense block-indexed table covering the segment.
func (g Geometry) BlocksFor(pages int) int {
	return pages << (g.PageShift - g.BlockShift)
}

// MaxSegmentBlocks bounds the size, in blocks, of a shared segment read
// from untrusted input (a trace header, a snapshot). The directory and the
// verification table index blocks densely, so the bound caps what such
// input can make the simulator allocate: 2^24 blocks is 64 MB of int32
// index. The largest full-scale workload needs about 2^17.
const MaxSegmentBlocks = 1 << 24

// CheckSegment reports whether a segment of `pages` pages stays within
// MaxSegmentBlocks. The geometry must be valid.
func (g Geometry) CheckSegment(pages int) error {
	if pages < 0 || pages > MaxSegmentBlocks>>(g.PageShift-g.BlockShift) {
		return fmt.Errorf("addr: %d pages of %d blocks exceed the %d-block segment bound",
			pages, g.BlocksPerPage(), MaxSegmentBlocks)
	}
	return nil
}

// Validate reports whether the geometry is internally consistent.
func (g Geometry) Validate() error {
	if g.BlockShift < 2 || g.BlockShift > 12 {
		return fmt.Errorf("addr: block shift %d out of range [2,12]", g.BlockShift)
	}
	if g.PageShift <= g.BlockShift || g.PageShift > 24 {
		return fmt.Errorf("addr: page shift %d must be in (%d,24]", g.PageShift, g.BlockShift)
	}
	return nil
}

// String renders the geometry for logs and reports.
func (g Geometry) String() string {
	return fmt.Sprintf("block=%dB page=%dB (%d blocks/page)",
		g.BlockBytes(), g.PageBytes(), g.BlocksPerPage())
}
