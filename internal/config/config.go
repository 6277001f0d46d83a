// Package config holds the machine geometry and the cost parameters of the
// paper's Table 2, plus the per-experiment configurations used in Section 5.
//
// All costs are in 400-MHz processor cycles, as in the paper.
package config

import (
	"fmt"
	"strings"

	"rnuma/internal/addr"
	"rnuma/internal/pagecache"
)

// Protocol selects which remote-caching design a run simulates.
type Protocol int

const (
	// CCNUMA caches remote data in the node's cache hierarchy and a
	// per-node SRAM block cache (paper Section 2.1).
	CCNUMA Protocol = iota
	// SCOMA caches remote data at page granularity in a main-memory page
	// cache guarded by fine-grain access-control tags (paper Section 2.2).
	SCOMA
	// RNUMA starts every remote page as CC-NUMA and reactively relocates
	// pages with many capacity/conflict refetches into the S-COMA page
	// cache (paper Section 3, the contribution).
	RNUMA
)

// String names the protocol as the paper spells it.
func (p Protocol) String() string {
	switch p {
	case CCNUMA:
		return "CC-NUMA"
	case SCOMA:
		return "S-COMA"
	case RNUMA:
		return "R-NUMA"
	}
	return fmt.Sprintf("Protocol(%d)", int(p))
}

// Costs are the block- and page-operation costs of Table 2 plus the
// occupancy parameters the paper models contention with but does not
// tabulate (bus, network interface, and protocol-controller occupancies).
type Costs struct {
	// Block operations (Table 2).
	SRAMAccess  int64 // block cache, fine-grain tags, translation table, counters
	DRAMAccess  int64 // page cache / main memory array access
	LocalFill   int64 // L1 fill from node memory (includes the DRAM access)
	RemoteFetch int64 // end-to-end remote block fetch (2 network hops + service)

	// Page operations (Table 2). PageOpBase..PageOpBase+PageOpPerBlock*BlocksPerPage
	// spans the paper's 3000~11500 range: the base covers the soft trap,
	// TLB invalidation and bookkeeping, and each flushed block adds a
	// writeback's worth of work.
	SoftTrap       int64 // page fault or relocation interrupt entry/exit
	TLBShootdown   int64 // invalidate local TLBs
	PageOpFixed    int64 // bookkeeping beyond trap+shootdown (base = trap+shootdown+fixed)
	PageOpPerBlock int64 // extra cycles per block flushed back to home

	// Latency adders for directory actions beyond the flat RemoteFetch.
	ThreeHopExtra int64 // dirty block forwarded from a third-node owner
	InvalExtra    int64 // write to a block with remote sharers (ack collection)

	// Occupancies for contention modeling (held, not latency by themselves).
	BusOccupancy int64 // node memory bus per block transaction
	NIOccupancy  int64 // network interface per message
	RADOccupancy int64 // protocol controller per remote transaction

	// Network one-way latency (the paper's constant 100 cycles).
	NetLatency int64

	// L1 behavior.
	L1HitCycles int64 // load-to-use on an L1 hit
}

// BlockCacheHit returns the cycles to service an L1 fill from the SRAM
// block cache: the SRAM lookup replaces the DRAM access in a local fill.
func (c Costs) BlockCacheHit() int64 { return c.SRAMAccess + c.LocalFill - c.DRAMAccess }

// PageOpBase returns the minimum cost of a page allocation/replacement or
// relocation (no blocks flushed): trap + shootdown + fixed bookkeeping.
func (c Costs) PageOpBase() int64 { return c.SoftTrap + c.TLBShootdown + c.PageOpFixed }

// PageOpCost returns the full cost of allocating/replacing or relocating a
// page when `flushed` blocks must be written back or moved.
func (c Costs) PageOpCost(flushed int) int64 {
	return c.PageOpBase() + c.PageOpPerBlock*int64(flushed)
}

// BaseCosts returns the paper's base system assumptions (Table 2): 5-µs
// page fault handling and 0.5-µs hardware TLB invalidation at 400 MHz.
func BaseCosts() Costs {
	return Costs{
		SRAMAccess:     8,
		DRAMAccess:     56,
		LocalFill:      69,
		RemoteFetch:    376,
		SoftTrap:       2000, // 5 µs @ 400 MHz
		TLBShootdown:   200,  // 0.5 µs
		PageOpFixed:    800,  // base 3000 total, matching Table 2's lower bound
		PageOpPerBlock: 66,   // 128 blocks/page -> ~11450, Table 2's upper bound
		ThreeHopExtra:  145,
		InvalExtra:     100,
		BusOccupancy:   12, // 3 bus cycles at the 4:1 CPU:bus clock ratio
		NIOccupancy:    20,
		RADOccupancy:   26,
		NetLatency:     100,
		L1HitCycles:    1,
	}
}

// SoftCosts returns the Figure-9 "SOFT" variant: 10-µs page faults and 5-µs
// software TLB invalidation via inter-processor interrupts, making per-page
// overheads roughly three times higher.
func SoftCosts() Costs {
	c := BaseCosts()
	c.SoftTrap = 4000     // 10 µs
	c.TLBShootdown = 2000 // 5 µs
	return c
}

// System describes one simulated machine configuration.
type System struct {
	Name     string
	Protocol Protocol
	Geometry addr.Geometry
	Costs    Costs

	Nodes       int // SMP nodes in the machine
	CPUsPerNode int // processors per node

	L1Bytes int // per-CPU data cache (direct-mapped)

	// BlockCacheBytes sizes the CC-NUMA/R-NUMA SRAM block cache
	// (direct-mapped, writeback). Zero means the protocol has none
	// (pure S-COMA); InfiniteBlockCache models the paper's ideal machine.
	BlockCacheBytes int

	// PageCacheBytes sizes the S-COMA/R-NUMA main-memory page cache.
	PageCacheBytes int

	// Threshold is R-NUMA's relocation threshold T (refetches per page
	// before the OS relocates the page to the page cache).
	Threshold int

	// NaiveCounting feeds the R-NUMA counters on every remote fetch,
	// coherence misses included, instead of on capacity and conflict
	// refetches only: the counting ablation of Section 3.1, under which
	// communication pages cross the threshold and are pointlessly
	// relocated. False is the paper's design.
	NaiveCounting bool

	// PageReplacement selects the page-cache replacement policy: the
	// paper's Least Recently Missed, or conventional LRU for the
	// replacement-policy ablation.
	PageReplacement pagecache.Policy

	// FirstTouch enables the first-touch page migration directive of
	// Section 2.1: the first node to request a page becomes its home
	// (harness runs take each page's home from the workload, the node
	// that touches it first). Without it, pages are homed round-robin.
	FirstTouch bool
}

// InfiniteBlockCache makes the block cache large enough to hold all remote
// data, modeling the paper's normalization baseline ("ideal" CC-NUMA).
const InfiniteBlockCache = -1

// Base returns the paper's base configuration for the given protocol
// (Section 4): 8 nodes x 4 CPUs, 8-KB L1s, 32-KB CC-NUMA block cache,
// 320-KB page cache, 128-byte R-NUMA block cache, threshold 64.
func Base(p Protocol) System {
	s := System{
		Name:        p.String(),
		Protocol:    p,
		Geometry:    addr.Default,
		Costs:       BaseCosts(),
		Nodes:       8,
		CPUsPerNode: 4,
		L1Bytes:     8 << 10,
		Threshold:   64,
		FirstTouch:  true,
	}
	switch p {
	case CCNUMA:
		s.BlockCacheBytes = 32 << 10
	case SCOMA:
		s.PageCacheBytes = 320 << 10
	case RNUMA:
		s.BlockCacheBytes = 128
		s.PageCacheBytes = 320 << 10
	}
	return s
}

// Ideal returns the normalization baseline used by every figure: a CC-NUMA
// machine whose block cache holds all referenced remote data.
func Ideal() System {
	s := Base(CCNUMA)
	s.Name = "CC-NUMA (infinite block cache)"
	s.BlockCacheBytes = InfiniteBlockCache
	return s
}

// SystemByName resolves a CLI protocol spelling to its base system — the
// one place every tool's -protocol flag goes through, so all CLIs accept
// the same aliases. "ideal" names the normalization baseline.
func SystemByName(name string) (System, error) {
	switch strings.ToLower(name) {
	case "ccnuma", "cc-numa", "cc":
		return Base(CCNUMA), nil
	case "scoma", "s-coma", "sc":
		return Base(SCOMA), nil
	case "rnuma", "r-numa", "r":
		return Base(RNUMA), nil
	case "ideal":
		return Ideal(), nil
	}
	return System{}, fmt.Errorf("config: unknown protocol %q (want ccnuma, scoma, rnuma, or ideal)", name)
}

// Validate reports configuration errors before a run.
func (s System) Validate() error {
	if err := s.Geometry.Validate(); err != nil {
		return err
	}
	if s.Nodes < 1 || s.Nodes > 32 {
		return fmt.Errorf("config: %d nodes out of range [1,32]", s.Nodes)
	}
	if s.CPUsPerNode < 1 || s.CPUsPerNode > 16 {
		return fmt.Errorf("config: %d CPUs/node out of range [1,16]", s.CPUsPerNode)
	}
	if s.L1Bytes < s.Geometry.BlockBytes() {
		return fmt.Errorf("config: L1 (%d B) smaller than a block", s.L1Bytes)
	}
	if s.L1Bytes&(s.L1Bytes-1) != 0 {
		return fmt.Errorf("config: L1 size %d not a power of two", s.L1Bytes)
	}
	switch s.Protocol {
	case CCNUMA:
		if s.BlockCacheBytes == 0 {
			return fmt.Errorf("config: CC-NUMA requires a block cache")
		}
	case SCOMA:
		if s.PageCacheBytes < s.Geometry.PageBytes() {
			return fmt.Errorf("config: S-COMA page cache (%d B) smaller than a page", s.PageCacheBytes)
		}
	case RNUMA:
		if s.BlockCacheBytes == 0 || s.PageCacheBytes < s.Geometry.PageBytes() {
			return fmt.Errorf("config: R-NUMA requires both a block cache and a page cache")
		}
		if s.Threshold < 1 {
			return fmt.Errorf("config: R-NUMA threshold %d must be >= 1", s.Threshold)
		}
	default:
		return fmt.Errorf("config: unknown protocol %d", s.Protocol)
	}
	if err := s.checkBlockCache(); err != nil {
		return err
	}
	if s.PageCacheBytes > 0 && s.PageCacheBytes%s.Geometry.PageBytes() != 0 {
		return fmt.Errorf("config: page cache %d B not a multiple of the page size", s.PageCacheBytes)
	}
	return nil
}

// checkBlockCache rejects a block cache the direct-mapped index cannot
// model: a size that is not a power-of-two number of blocks (its frame
// index masks the block number), a negative size other than
// InfiniteBlockCache, or more frames than addr.MaxSegmentBlocks, which no
// segment's remote blocks can fill.
func (s System) checkBlockCache() error {
	n := s.BlockCacheBytes
	switch {
	case n == 0 || n == InfiniteBlockCache:
		return nil
	case n < 0:
		return fmt.Errorf("config: block cache size %d B is negative (only %d, the infinite cache, is)", n, InfiniteBlockCache)
	case n%s.Geometry.BlockBytes() != 0:
		return fmt.Errorf("config: block cache %d B not a multiple of the block size", n)
	}
	frames := n / s.Geometry.BlockBytes()
	if frames&(frames-1) != 0 {
		return fmt.Errorf("config: block cache %d B holds %d blocks, not a power of two", n, frames)
	}
	if frames > addr.MaxSegmentBlocks {
		return fmt.Errorf("config: block cache %d B holds %d blocks, past the %d-block segment bound",
			n, frames, addr.MaxSegmentBlocks)
	}
	return nil
}

// TotalCPUs returns the machine's processor count.
func (s System) TotalCPUs() int { return s.Nodes * s.CPUsPerNode }

// BlockCacheBlocks returns the number of block-cache frames, or -1 for the
// infinite (ideal) cache.
func (s System) BlockCacheBlocks() int {
	if s.BlockCacheBytes == InfiniteBlockCache {
		return -1
	}
	return s.BlockCacheBytes / s.Geometry.BlockBytes()
}

// PageCacheFrames returns the number of page-cache frames.
func (s System) PageCacheFrames() int { return s.PageCacheBytes / s.Geometry.PageBytes() }
