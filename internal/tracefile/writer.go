package tracefile

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"

	"rnuma/internal/trace"
	"rnuma/internal/workloads"
)

// Writer encodes reference streams into the trace file format. Records
// are appended per CPU in program order; the writer accumulates each
// CPU's records into a chunk and flushes it when chunkRecords are
// pending, so memory use is bounded regardless of trace length. Writers
// are not safe for concurrent use (the simulator issues references from
// one goroutine).
type Writer struct {
	w   *bufio.Writer
	h   Header
	err error

	pending    [][]byte // per-CPU encoded records awaiting a chunk flush
	counts     []int    // records pending per CPU
	lastPage   []int64  // per-CPU delta-encoding state
	chunkStart []int64  // lastPage at each pending chunk's first record (the seed)
	total      uint64   // records written across all CPUs
	bytes      int64    // bytes emitted (header + chunks), before Close's end marker
	scratch    []byte
	closed     bool

	fw   *flate.Writer // reused across chunk flushes
	cbuf bytes.Buffer  // compressed-chunk staging buffer
}

// NewWriter validates the header, writes it, and returns a writer ready
// for Append. Close must be called to emit the end marker; the
// underlying io.Writer is not closed. The writer emits version 2: every
// chunk carries its page seed, and its payload is DEFLATE-compressed
// wherever that shrinks it.
func NewWriter(w io.Writer, h Header) (*Writer, error) {
	if err := h.Validate(); err != nil {
		return nil, err
	}
	tw := &Writer{
		w:          bufio.NewWriter(w),
		h:          h,
		pending:    make([][]byte, h.CPUs),
		counts:     make([]int, h.CPUs),
		lastPage:   make([]int64, h.CPUs),
		chunkStart: make([]int64, h.CPUs),
	}
	tw.writeHeader()
	if tw.err != nil {
		return nil, tw.err
	}
	return tw, nil
}

func (tw *Writer) writeHeader() {
	buf := make([]byte, 0, 64+len(tw.h.Name)+2*len(tw.h.Homes))
	buf = append(buf, magic...)
	buf = append(buf, VersionV2, byte(tw.h.Geometry.BlockShift), byte(tw.h.Geometry.PageShift))
	buf = binary.AppendUvarint(buf, uint64(tw.h.CPUs))
	buf = binary.AppendUvarint(buf, uint64(tw.h.Nodes))
	buf = binary.AppendUvarint(buf, uint64(tw.h.SharedPages))
	buf = binary.AppendUvarint(buf, uint64(len(tw.h.Name)))
	buf = append(buf, tw.h.Name...)

	// Run-length encode the home map: placement is runs of same-homed
	// pages (per-node allocations) punctuated by round-robin stretches.
	var runs [][2]uint64
	for p := 0; p < len(tw.h.Homes); {
		q := p
		for q < len(tw.h.Homes) && tw.h.Homes[q] == tw.h.Homes[p] {
			q++
		}
		runs = append(runs, [2]uint64{uint64(q - p), uint64(tw.h.Homes[p])})
		p = q
	}
	buf = binary.AppendUvarint(buf, uint64(len(runs)))
	for _, r := range runs {
		buf = binary.AppendUvarint(buf, r[0])
		buf = binary.AppendUvarint(buf, r[1])
	}
	tw.write(buf)
}

func (tw *Writer) write(b []byte) {
	if tw.err != nil {
		return
	}
	n, err := tw.w.Write(b)
	tw.bytes += int64(n)
	tw.err = err
}

// Append encodes one reference onto the given CPU's stream.
func (tw *Writer) Append(cpu int, r trace.Ref) error {
	if tw.err != nil {
		return tw.err
	}
	if tw.closed {
		tw.err = fmt.Errorf("tracefile: append after Close")
		return tw.err
	}
	if err := tw.h.checkRecord(cpu, &r); err != nil {
		tw.err = err
		return err
	}

	if tw.counts[cpu] == 0 {
		// First record of a fresh chunk: remember the delta accumulator so
		// the chunk header can carry it as the seek seed.
		tw.chunkStart[cpu] = tw.lastPage[cpu]
	}

	buf := tw.scratch[:0]
	var flags byte
	if r.Write {
		flags |= flagWrite
	}
	if r.Barrier {
		flags |= flagBarrier
	}
	// Barriers carry no page, so they leave the delta chain untouched:
	// a sweep interrupted by a barrier resumes with a one-byte delta.
	delta := int64(r.Page) - tw.lastPage[cpu]
	if r.Barrier {
		delta = 0
	}
	if delta != 0 {
		flags |= flagDelta
	}
	if r.Off != 0 {
		flags |= flagOff
	}
	if r.Gap != 0 {
		flags |= flagGap
	}
	buf = append(buf, flags)
	if delta != 0 {
		buf = binary.AppendVarint(buf, delta)
	}
	if r.Off != 0 {
		buf = binary.AppendUvarint(buf, uint64(r.Off))
	}
	if r.Gap != 0 {
		buf = binary.AppendUvarint(buf, uint64(r.Gap))
	}
	tw.scratch = buf
	if !r.Barrier {
		tw.lastPage[cpu] = int64(r.Page)
	}

	tw.pending[cpu] = append(tw.pending[cpu], buf...)
	tw.counts[cpu]++
	tw.total++
	if tw.counts[cpu] >= chunkRecords {
		tw.flushChunk(cpu)
	}
	return tw.err
}

// checkRecord range-checks one record of a CPU's stream: the CPU must
// exist, and a reference (a barrier's page and offset mean nothing) must
// name a block of the shared segment.
func (h *Header) checkRecord(cpu int, r *trace.Ref) error {
	if cpu < 0 || cpu >= h.CPUs {
		return fmt.Errorf("tracefile: cpu %d out of range [0,%d)", cpu, h.CPUs)
	}
	if !r.Barrier {
		if int(r.Page) >= h.SharedPages {
			return fmt.Errorf("tracefile: page %d outside the %d-page segment", r.Page, h.SharedPages)
		}
		if int(r.Off) >= h.Geometry.BlocksPerPage() {
			return fmt.Errorf("tracefile: block offset %d outside the %d-block page", r.Off, h.Geometry.BlocksPerPage())
		}
	}
	return nil
}

// flushChunk emits the CPU's pending records as one chunk.
func (tw *Writer) flushChunk(cpu int) {
	if tw.counts[cpu] == 0 {
		return
	}
	raw := tw.pending[cpu]
	hdr := make([]byte, 0, 24)
	hdr = binary.AppendUvarint(hdr, uint64(cpu))
	hdr = binary.AppendUvarint(hdr, uint64(tw.counts[cpu]))
	payload, flags := raw, byte(chunkSeed)
	if packed, ok := tw.deflate(raw); ok {
		payload, flags = packed, flags|chunkDeflate
	}
	hdr = append(hdr, flags)
	if flags&chunkDeflate != 0 {
		hdr = binary.AppendUvarint(hdr, uint64(len(raw)))
	}
	hdr = binary.AppendVarint(hdr, tw.chunkStart[cpu])
	hdr = binary.AppendUvarint(hdr, uint64(len(payload)))
	tw.write(hdr)
	tw.write(payload)
	tw.pending[cpu] = tw.pending[cpu][:0]
	tw.counts[cpu] = 0
}

// deflate compresses a chunk payload, reporting ok=false when compression
// would not shrink it (the chunk is then stored raw, so adversarial or
// already-dense payloads never grow the file).
func (tw *Writer) deflate(raw []byte) ([]byte, bool) {
	tw.cbuf.Reset()
	if tw.fw == nil {
		fw, err := flate.NewWriter(&tw.cbuf, flate.DefaultCompression)
		if err != nil {
			tw.err = fmt.Errorf("tracefile: init deflate: %w", err)
			return nil, false
		}
		tw.fw = fw
	} else {
		tw.fw.Reset(&tw.cbuf)
	}
	if _, err := tw.fw.Write(raw); err != nil {
		tw.err = fmt.Errorf("tracefile: deflate: %w", err)
		return nil, false
	}
	if err := tw.fw.Close(); err != nil {
		tw.err = fmt.Errorf("tracefile: deflate: %w", err)
		return nil, false
	}
	if tw.cbuf.Len() >= len(raw) {
		return nil, false
	}
	return tw.cbuf.Bytes(), true
}

// Refs returns the number of records appended so far.
func (tw *Writer) Refs() int64 { return int64(tw.total) }

// Bytes returns the encoded size so far (the end marker adds a few more
// at Close).
func (tw *Writer) Bytes() int64 { return tw.bytes }

// Err returns the writer's sticky error.
func (tw *Writer) Err() error { return tw.err }

// Close flushes all pending chunks and the end marker. It does not close
// the underlying writer.
func (tw *Writer) Close() error {
	if tw.closed {
		return tw.err
	}
	tw.closed = true
	for cpu := range tw.pending {
		tw.flushChunk(cpu)
	}
	end := make([]byte, 0, 16)
	end = binary.AppendUvarint(end, uint64(tw.h.CPUs))
	end = binary.AppendUvarint(end, tw.total)
	tw.write(end)
	if tw.err != nil {
		return tw.err
	}
	tw.err = tw.w.Flush()
	return tw.err
}

// WorkloadHeader derives the trace header for a built workload: the
// machine shape from the sizing config plus the workload's materialized
// page placement.
func WorkloadHeader(wl *workloads.Workload, cfg workloads.Config) Header {
	return Header{
		Name:        wl.Name,
		Geometry:    cfg.Geometry,
		CPUs:        cfg.Nodes * cfg.CPUsPerNode,
		Nodes:       cfg.Nodes,
		SharedPages: wl.SharedPages,
		Homes:       wl.ResolveHomes(),
	}
}

// WriteWorkload records a workload's full reference streams to w,
// draining them round-robin so chunks interleave the way replay consumes
// them. It returns the record count and encoded byte size.
func WriteWorkload(w io.Writer, wl *workloads.Workload, cfg workloads.Config) (refs, bytes int64, err error) {
	tw, err := NewWriter(w, WorkloadHeader(wl, cfg))
	if err != nil {
		return 0, 0, err
	}
	if err = roundRobin(wl.Streams, tw.Append); err == nil {
		err = tw.Close()
	}
	return tw.Refs(), tw.Bytes(), err
}
