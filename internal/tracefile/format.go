// Package tracefile implements a compact streaming binary format for
// memory-reference traces: the capture/replay substrate that lets the
// simulator ingest recorded traffic instead of (only) the built-in
// synthetic generators.
//
// # Format
//
// A trace file is a header followed by per-CPU record chunks and a
// terminating end marker. All integers are unsigned varints
// (encoding/binary) unless stated otherwise. Two on-disk versions exist:
// the Writer emits version 2, with a seed on every chunk and DEFLATE
// wherever it shrinks the chunk, and the Reader reads both, version-1
// files and unseeded version-2 chunks included.
//
//	header:
//	  magic      [4]byte  "RNTR"
//	  version    byte     1 or 2
//	  blockShift byte     log2(block bytes)
//	  pageShift  byte     log2(page bytes)
//	  cpus       uvarint  number of per-CPU streams
//	  nodes      uvarint  SMP nodes (home-map domain)
//	  pages      uvarint  shared-segment page count
//	  nameLen    uvarint  + name bytes (workload name, UTF-8)
//	  homeRuns   uvarint  + homeRuns x (uvarint runLen, uvarint node)
//	             run-length-encoded page->home map; run lengths sum to
//	             pages
//	chunk (version 1):
//	  cpu        uvarint  stream index, < cpus
//	  count      uvarint  records in this chunk, >= 1
//	  byteLen    uvarint  encoded payload size that follows
//	  payload    count records (see below), exactly byteLen bytes
//	chunk (version 2):
//	  cpu        uvarint  stream index, < cpus
//	  count      uvarint  records in this chunk, >= 1
//	  flags      byte     bit 0: payload is DEFLATE-compressed
//	                      bit 1: a page seed follows (see below)
//	  rawLen     uvarint  decoded payload size (present only when bit 0 set)
//	  seed       varint   the CPU's page-delta accumulator value at chunk
//	             start (present only when bit 1 set); makes the chunk
//	             independently decodable, so a seeking reader can skip
//	             whole prefix chunks without decoding them
//	  byteLen    uvarint  stored payload size that follows
//	  payload    byteLen bytes; after optional DEFLATE decompression,
//	             exactly count records spanning rawLen (or byteLen) bytes
//	end marker:
//	  cpus       uvarint  (the cpu field equal to the CPU count)
//	  total      uvarint  total records across all chunks (checksum)
//	  <EOF>      trailing bytes are an error
//
// Version 2's per-chunk DEFLATE is what makes bulk capture cheap: record
// payloads are highly repetitive (flags bytes and small deltas), so the
// catalog traces compress to well under 60% of their version-1 size. The
// Writer stores a chunk raw (flags bit 0 clear) whenever compression
// would not shrink it, so pathological inputs never grow.
//
// Each record is a flags byte followed by optional varint fields:
//
//	bit 0  Write
//	bit 1  Barrier
//	bit 2  a Gap uvarint follows
//	bit 3  an Off uvarint follows
//	bit 4  a signed page delta varint follows
//
// Page numbers are delta-encoded per CPU (zigzag signed varints against
// the previous record's page on the same stream, starting from 0);
// omitted fields decode as "gap 0", "offset 0", and "same page as the
// previous record". Sequential sweeps — the common case — therefore cost
// 2-4 bytes per reference against 12 bytes of in-memory trace.Ref.
//
// The chunked layout keeps both ends streaming: the Writer flushes a
// CPU's chunk whenever chunkRecords accumulate, and the Reader demuxes
// chunks into per-CPU queues on demand, so neither side materializes the
// full trace.
package tracefile

import (
	"fmt"

	"rnuma/internal/addr"
)

const (
	magic = "RNTR"

	// VersionV1 is the original uncompressed chunk format; VersionV2 adds
	// the per-chunk flags byte and optional DEFLATE payload compression.
	// The Writer emits VersionV2; the Reader accepts both.
	VersionV1 = 1
	VersionV2 = 2

	// chunkRecords is the Writer's per-CPU flush threshold. Small enough
	// that the Reader's demux buffers stay modest when replay pulls
	// streams unevenly, large enough to amortize chunk headers (and, in
	// version 2, to give DEFLATE a useful compression window).
	chunkRecords = 4096

	// Sanity bounds for decoding untrusted input. They comfortably exceed
	// anything config.System.Validate accepts (32 nodes x 16 CPUs, and
	// full-scale workload segments of a few thousand pages), so real
	// traces never hit them — while a crafted header cannot demand
	// absurd allocations. The page bound matters beyond this package:
	// replay sizes the machine's dense per-page state (homes, sharing
	// flags, per-(node,page) counters) and its dense block index from the
	// header's page count, so pages, pages*nodes and pages*blocks-per-page
	// (addr.MaxSegmentBlocks) must stay small enough that a ~50-byte
	// malicious file cannot OOM the simulator before a record is read.
	maxCPUs    = 1 << 12
	maxNodes   = 1 << 10
	maxPages   = 1 << 20
	maxNameLen = 1 << 12

	// maxChunkLen bounds both a chunk's stored payload and (for version-2
	// compressed chunks) its declared decompressed size, which the Reader
	// buffers in full. The Writer flushes at chunkRecords records of at
	// most ~31 encoded bytes each (~128 KB), so 4 MB is far beyond any
	// real chunk while keeping a crafted chunk's decompression allocation
	// small.
	maxChunkLen = 1 << 22

	// maxPageNodeProduct bounds SharedPages*Nodes, the size of the dense
	// per-(node,page) tables replay allocates (16M entries ~= 128 MB of
	// int64 counters worst case).
	maxPageNodeProduct = 1 << 24
)

// Record flag bits.
const (
	flagWrite   = 1 << 0
	flagBarrier = 1 << 1
	flagGap     = 1 << 2
	flagOff     = 1 << 3
	flagDelta   = 1 << 4

	flagsKnown = flagWrite | flagBarrier | flagGap | flagOff | flagDelta
)

// Version-2 chunk flag bits.
const (
	chunkDeflate = 1 << 0
	// chunkSeed marks a chunk carrying its page-delta seed, making it
	// decodable without the chunks before it (the Seek fast path). The
	// Writer sets it on every chunk; version-2 files without it (written
	// before the flag existed) still decode and seek, just without
	// whole-chunk skipping.
	chunkSeed = 1 << 1

	chunkFlagsKnown = chunkDeflate | chunkSeed
)

// Header describes the recorded machine shape and page placement; it is
// everything replay needs beyond the reference streams themselves.
type Header struct {
	// Name is the recorded workload's name (informational).
	Name string
	// Geometry is the block/page geometry the trace's page numbers and
	// block offsets are expressed in. Replay must use the same geometry.
	Geometry addr.Geometry
	// CPUs is the number of per-CPU reference streams.
	CPUs int
	// Nodes is the node count the home map is expressed against.
	Nodes int
	// SharedPages is the shared-segment size in pages; every record's
	// page number is below it.
	SharedPages int
	// Homes maps each page of the shared segment to its home node
	// (len == SharedPages).
	Homes []addr.NodeID
}

// Validate reports whether the header is internally consistent.
func (h Header) Validate() error {
	if err := h.Geometry.Validate(); err != nil {
		return err
	}
	if h.CPUs < 1 || h.CPUs > maxCPUs {
		return fmt.Errorf("tracefile: cpu count %d out of range [1,%d]", h.CPUs, maxCPUs)
	}
	if h.Nodes < 1 || h.Nodes > maxNodes {
		return fmt.Errorf("tracefile: node count %d out of range [1,%d]", h.Nodes, maxNodes)
	}
	if h.SharedPages < 0 || h.SharedPages > maxPages {
		return fmt.Errorf("tracefile: shared page count %d out of range [0,%d]", h.SharedPages, maxPages)
	}
	if h.SharedPages*h.Nodes > maxPageNodeProduct {
		return fmt.Errorf("tracefile: %d pages x %d nodes exceeds the %d-entry dense-state bound",
			h.SharedPages, h.Nodes, maxPageNodeProduct)
	}
	// Replay's directory indexes the segment's blocks densely: small
	// blocks in large pages must not turn a few pages into gigabytes.
	if err := h.Geometry.CheckSegment(h.SharedPages); err != nil {
		return fmt.Errorf("tracefile: %w", err)
	}
	if len(h.Name) > maxNameLen {
		return fmt.Errorf("tracefile: name length %d exceeds %d", len(h.Name), maxNameLen)
	}
	if len(h.Homes) != h.SharedPages {
		return fmt.Errorf("tracefile: home map covers %d pages, segment has %d", len(h.Homes), h.SharedPages)
	}
	for p, n := range h.Homes {
		if n < 0 || int(n) >= h.Nodes {
			return fmt.Errorf("tracefile: page %d homed at node %d, machine has %d nodes", p, n, h.Nodes)
		}
	}
	return nil
}

// HomeFunc returns the header's home map as the function form the machine
// consumes. Pages beyond the recorded segment (which a well-formed trace
// never references) fall back to round-robin.
func (h Header) HomeFunc() func(addr.PageNum) addr.NodeID {
	homes := h.Homes
	nodes := addr.NodeID(h.Nodes)
	return func(p addr.PageNum) addr.NodeID {
		if int(p) < len(homes) {
			return homes[p]
		}
		return addr.NodeID(p) % nodes
	}
}
