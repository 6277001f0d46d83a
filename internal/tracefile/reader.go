package tracefile

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"rnuma/internal/addr"
	"rnuma/internal/trace"
	"rnuma/internal/workloads"
)

// Reader decodes a trace file into one lazy trace.Stream per CPU. Chunks
// are read from the underlying reader on demand: when a CPU's stream is
// pulled and its queue is empty, the reader consumes chunks (buffering
// records that belong to other CPUs) until one arrives for that CPU or
// the file ends. Because the Writer interleaves chunks in near-replay
// order, the demux queues stay small — the full trace is never
// materialized.
//
// trace.Stream cannot carry an error, so a malformed or truncated file
// makes the affected streams end early and records a sticky error; check
// Err after the run (Workload wires this into workloads.Workload.Check).
type Reader struct {
	br      *bufio.Reader
	h       Header
	version int
	err     error

	queues   [][]trace.Ref // decoded records awaiting delivery, per CPU
	heads    []int         // pop position within each queue
	lastPage []int64       // per-CPU delta-decoding state
	skip     []int64       // per-CPU records still to discard (Seek)
	needSeed []bool        // per-CPU: skipped a chunk wholesale, delta state stale
	total    uint64        // records decoded across all chunks
	done     bool          // end marker consumed
	streams  []trace.Stream

	chunkBuf []byte       // stored-payload staging buffer
	rawBuf   bytes.Buffer // v2 decompressed-payload staging buffer
	fr       io.ReadCloser
}

// NewReader parses the header and prepares per-CPU streams. Chunk data is
// read lazily as the streams are pulled.
func NewReader(r io.Reader) (*Reader, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	d := &Reader{br: br}
	if err := d.readHeader(); err != nil {
		return nil, err
	}
	d.queues = make([][]trace.Ref, d.h.CPUs)
	d.heads = make([]int, d.h.CPUs)
	d.lastPage = make([]int64, d.h.CPUs)
	d.skip = make([]int64, d.h.CPUs)
	d.needSeed = make([]bool, d.h.CPUs)
	d.streams = make([]trace.Stream, d.h.CPUs)
	for i := range d.streams {
		d.streams[i] = &readerStream{d: d, cpu: i}
	}
	return d, nil
}

func (d *Reader) readHeader() error {
	var m [4]byte
	if _, err := io.ReadFull(d.br, m[:]); err != nil {
		return fmt.Errorf("tracefile: reading magic: %w", err)
	}
	if string(m[:]) != magic {
		return fmt.Errorf("tracefile: bad magic %q", m[:])
	}
	var fixed [3]byte
	if _, err := io.ReadFull(d.br, fixed[:]); err != nil {
		return fmt.Errorf("tracefile: reading version/geometry: %w", err)
	}
	if fixed[0] != VersionV1 && fixed[0] != VersionV2 {
		return fmt.Errorf("tracefile: unsupported version %d (want %d or %d)", fixed[0], VersionV1, VersionV2)
	}
	d.version = int(fixed[0])
	d.h.Geometry = addr.Geometry{BlockShift: uint(fixed[1]), PageShift: uint(fixed[2])}
	cpus, err := d.uvarint("cpu count", maxCPUs)
	if err != nil {
		return err
	}
	nodes, err := d.uvarint("node count", maxNodes)
	if err != nil {
		return err
	}
	pages, err := d.uvarint("page count", maxPages)
	if err != nil {
		return err
	}
	nameLen, err := d.uvarint("name length", maxNameLen)
	if err != nil {
		return err
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(d.br, name); err != nil {
		return fmt.Errorf("tracefile: reading name: %w", eofIsUnexpected(err))
	}
	d.h.CPUs, d.h.Nodes, d.h.SharedPages, d.h.Name = int(cpus), int(nodes), int(pages), string(name)

	runs, err := d.uvarint("home run count", maxPages)
	if err != nil {
		return err
	}
	d.h.Homes = make([]addr.NodeID, 0, pages)
	for i := uint64(0); i < runs; i++ {
		runLen, err := d.uvarint("home run length", maxPages)
		if err != nil {
			return err
		}
		node, err := d.uvarint("home node", uint64(nodes))
		if err != nil {
			return err
		}
		if uint64(len(d.h.Homes))+runLen > pages {
			return fmt.Errorf("tracefile: home runs cover more than %d pages", pages)
		}
		for j := uint64(0); j < runLen; j++ {
			d.h.Homes = append(d.h.Homes, addr.NodeID(node))
		}
	}
	return d.h.Validate()
}

// uvarint reads one header varint and bounds-checks it (limit is
// inclusive for counts whose domain is [0,limit], exclusive only where
// the caller passes the exclusive bound, e.g. node < nodes is enforced by
// Header.Validate afterwards).
func (d *Reader) uvarint(what string, limit uint64) (uint64, error) {
	v, err := binary.ReadUvarint(d.br)
	if err != nil {
		return 0, fmt.Errorf("tracefile: reading %s: %w", what, eofIsUnexpected(err))
	}
	if v > limit {
		return 0, fmt.Errorf("tracefile: %s %d exceeds limit %d", what, v, limit)
	}
	return v, nil
}

// eofIsUnexpected maps a bare EOF mid-structure to ErrUnexpectedEOF so
// truncation always reports as an error, never as clean end-of-input.
func eofIsUnexpected(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Header returns the parsed file header.
func (d *Reader) Header() Header { return d.h }

// Version returns the file's on-disk format version (VersionV1 or
// VersionV2).
func (d *Reader) Version() int { return d.version }

// Streams returns the per-CPU replay streams. Each stream may be pulled
// independently; pulling triggers chunk reads as needed.
func (d *Reader) Streams() []trace.Stream { return d.streams }

// Err returns the sticky decode error, or nil. A truncated or corrupt
// file ends the streams early and parks the error here.
func (d *Reader) Err() error { return d.err }

// readerStream is one CPU's view of the demuxed trace: a trace.Stream
// with bulk delivery straight out of the demux queue and forward seeks
// with whole-chunk skipping.
type readerStream struct {
	d         *Reader
	cpu       int
	delivered int64 // records delivered or skipped so far
}

// fill ensures the CPU's queue has at least one deliverable record,
// reading chunks as needed. It reports false at end of stream or on a
// decode error.
func (s *readerStream) fill() bool {
	d := s.d
	for d.heads[s.cpu] >= len(d.queues[s.cpu]) {
		d.queues[s.cpu] = d.queues[s.cpu][:0]
		d.heads[s.cpu] = 0
		if d.done || d.err != nil {
			return false
		}
		d.readChunk()
	}
	return true
}

// Next implements trace.Stream.
func (s *readerStream) Next() (trace.Ref, bool) {
	if !s.fill() {
		return trace.Ref{}, false
	}
	d := s.d
	r := d.queues[s.cpu][d.heads[s.cpu]]
	d.heads[s.cpu]++
	s.delivered++
	return r, true
}

// NextBatch implements trace.Stream: it returns a view of up to max
// queued records straight out of the demux queue (no copy), reading
// chunks to refill an empty queue. The view is valid until the next call
// on this stream.
func (s *readerStream) NextBatch(max int) []trace.Ref {
	if !s.fill() {
		return nil
	}
	d := s.d
	q := d.queues[s.cpu]
	head := d.heads[s.cpu]
	n := len(q) - head
	if n > max {
		n = max
	}
	d.heads[s.cpu] = head + n
	s.delivered += int64(n)
	return q[head : head+n]
}

// SeekRecord implements trace.Stream: it positions the stream so the next
// record delivered is record n. Seeks are forward-only (the underlying
// reader is streaming). The skip is recorded lazily and satisfied as
// chunks are read; chunks that carry a page seed and fall entirely
// inside the skipped prefix are discarded without decoding — seek all
// streams before pulling any of them so whole-chunk skipping sees every
// CPU's cursor.
func (s *readerStream) SeekRecord(n int64) error {
	d := s.d
	if d.err != nil {
		return d.err
	}
	rel := n - s.delivered
	if rel < 0 {
		return fmt.Errorf("tracefile: backward seek to record %d (already at %d)", n, s.delivered)
	}
	// Drop already-decoded queued records first.
	if avail := int64(len(d.queues[s.cpu]) - d.heads[s.cpu]); avail > 0 && rel > 0 {
		take := avail
		if rel < take {
			take = rel
		}
		d.heads[s.cpu] += int(take)
		rel -= take
	}
	d.skip[s.cpu] += rel
	s.delivered = n
	return nil
}

// readChunk consumes one chunk (or the end marker) from the file,
// appending its records to the owning CPU's queue — except records still
// owed to a pending Seek, which are discarded, wholesale when the chunk
// carries a seed and lies entirely inside the skipped prefix.
func (d *Reader) readChunk() {
	fail := func(err error) { d.err = err }

	cpu, err := binary.ReadUvarint(d.br)
	if err != nil {
		// EOF here means the end marker is missing: the file was cut off
		// at a chunk boundary.
		fail(fmt.Errorf("tracefile: reading chunk header: %w", eofIsUnexpected(err)))
		return
	}
	if cpu == uint64(d.h.CPUs) {
		// End marker: verify the record-count checksum and clean EOF.
		total, err := binary.ReadUvarint(d.br)
		if err != nil {
			fail(fmt.Errorf("tracefile: reading end marker: %w", eofIsUnexpected(err)))
			return
		}
		if total != d.total {
			fail(fmt.Errorf("tracefile: end marker counts %d records, decoded %d", total, d.total))
			return
		}
		if _, err := d.br.ReadByte(); err != io.EOF {
			fail(fmt.Errorf("tracefile: trailing data after end marker"))
			return
		}
		d.done = true
		return
	}
	if cpu > uint64(d.h.CPUs) {
		fail(fmt.Errorf("tracefile: chunk for cpu %d, trace has %d cpus", cpu, d.h.CPUs))
		return
	}
	count, err := binary.ReadUvarint(d.br)
	if err != nil {
		fail(fmt.Errorf("tracefile: reading chunk count: %w", eofIsUnexpected(err)))
		return
	}

	var payload []byte
	if d.version >= VersionV2 {
		var skipped bool
		payload, skipped, err = d.chunkPayload(int(cpu), count)
		if err != nil {
			fail(err)
			return
		}
		if skipped {
			d.skip[cpu] -= int64(count)
			d.total += count
			return
		}
	} else {
		byteLen, err := binary.ReadUvarint(d.br)
		if err != nil {
			fail(fmt.Errorf("tracefile: reading chunk length: %w", eofIsUnexpected(err)))
			return
		}
		if byteLen > maxChunkLen {
			fail(fmt.Errorf("tracefile: chunk length %d exceeds limit %d", byteLen, maxChunkLen))
			return
		}
		if cap(d.chunkBuf) < int(byteLen) {
			d.chunkBuf = make([]byte, byteLen)
		}
		payload = d.chunkBuf[:byteLen]
		if _, err := io.ReadFull(d.br, payload); err != nil {
			fail(fmt.Errorf("tracefile: reading chunk payload: %w", eofIsUnexpected(err)))
			return
		}
	}
	// Every record is at least one byte, so count > len(payload) cannot
	// be satisfied; reject before decoding anything.
	if count == 0 || count > uint64(len(payload)) {
		fail(fmt.Errorf("tracefile: chunk count %d inconsistent with %d payload bytes", count, len(payload)))
		return
	}
	if d.needSeed[cpu] {
		// A previous chunk for this CPU was skipped without decoding, so
		// the delta accumulator is stale; only a seeded chunk (which
		// chunkPayload reseeded above) may follow.
		fail(fmt.Errorf("tracefile: unseeded chunk for cpu %d after a skipped chunk", cpu))
		return
	}

	// Batch-decode the payload in one tight loop with the per-CPU decode
	// state held in locals. The skipped prefix (records owed to a pending
	// Seek) is decoded for its delta side effects but not queued.
	q := d.queues[cpu]
	skip := d.skip[cpu]
	last := d.lastPage[cpu]
	maxPage := int64(d.h.SharedPages)
	maxOff := uint64(d.h.Geometry.BlocksPerPage())
	pos := 0
	var decErr error
	decoded := uint64(0)
	for ; decoded < count; decoded++ {
		if pos >= len(payload) {
			decErr = fmt.Errorf("tracefile: record truncated at payload byte %d", pos)
			break
		}
		flags := payload[pos]
		pos++
		if flags&^byte(flagsKnown) != 0 {
			decErr = fmt.Errorf("tracefile: unknown record flags %#x", flags)
			break
		}
		var r trace.Ref
		r.Write = flags&flagWrite != 0
		r.Barrier = flags&flagBarrier != 0
		if flags&flagDelta != 0 {
			delta, n := binary.Varint(payload[pos:])
			if n <= 0 {
				decErr = fmt.Errorf("tracefile: reading page delta: %w", io.ErrUnexpectedEOF)
				break
			}
			pos += n
			last += delta
			// Keep the running page inside a sane window even across
			// barrier records (whose pages are never dereferenced), so
			// repeated deltas cannot overflow the accumulator.
			if last < -(1<<40) || last > 1<<40 {
				decErr = fmt.Errorf("tracefile: page delta walked to %d, out of range", last)
				break
			}
		}
		if !r.Barrier {
			if last < 0 || last >= maxPage {
				decErr = fmt.Errorf("tracefile: page %d outside the %d-page segment", last, maxPage)
				break
			}
			r.Page = addr.PageNum(last)
		}
		if flags&flagOff != 0 {
			off, n := binary.Uvarint(payload[pos:])
			if n <= 0 {
				decErr = fmt.Errorf("tracefile: reading block offset: %w", io.ErrUnexpectedEOF)
				break
			}
			pos += n
			if off >= maxOff {
				decErr = fmt.Errorf("tracefile: block offset %d outside the %d-block page", off, maxOff)
				break
			}
			r.Off = uint16(off)
		}
		if flags&flagGap != 0 {
			gap, n := binary.Uvarint(payload[pos:])
			if n <= 0 {
				decErr = fmt.Errorf("tracefile: reading gap: %w", io.ErrUnexpectedEOF)
				break
			}
			pos += n
			if gap > 0xFFFF {
				decErr = fmt.Errorf("tracefile: gap %d overflows 16 bits", gap)
				break
			}
			r.Gap = uint16(gap)
		}
		if skip > 0 {
			skip--
		} else {
			q = append(q, r)
		}
	}
	d.queues[cpu] = q
	d.skip[cpu] = skip
	d.lastPage[cpu] = last
	d.total += decoded
	if decErr != nil {
		fail(decErr)
		return
	}
	if pos != len(payload) {
		fail(fmt.Errorf("tracefile: chunk decoded %d bytes, header declared %d", pos, len(payload)))
	}
}

// chunkPayload reads a version-2 chunk's flags and payload, decompressing
// if needed, and returns the decoded record bytes. When the chunk carries
// a page seed and every record falls inside the CPU's pending skip, the
// payload is discarded unread and skipped=true is returned — the Seek
// fast path that makes forking from a snapshot cheap.
func (d *Reader) chunkPayload(cpu int, count uint64) (payload []byte, skipped bool, err error) {
	flags, err := d.br.ReadByte()
	if err != nil {
		return nil, false, fmt.Errorf("tracefile: reading chunk flags: %w", eofIsUnexpected(err))
	}
	if flags&^byte(chunkFlagsKnown) != 0 {
		return nil, false, fmt.Errorf("tracefile: unknown chunk flags %#x", flags)
	}
	rawLen := uint64(0)
	if flags&chunkDeflate != 0 {
		rawLen, err = binary.ReadUvarint(d.br)
		if err != nil {
			return nil, false, fmt.Errorf("tracefile: reading chunk raw length: %w", eofIsUnexpected(err))
		}
		if rawLen > maxChunkLen {
			return nil, false, fmt.Errorf("tracefile: chunk raw length %d exceeds limit %d", rawLen, maxChunkLen)
		}
	}
	if flags&chunkSeed != 0 {
		seed, err := binary.ReadVarint(d.br)
		if err != nil {
			return nil, false, fmt.Errorf("tracefile: reading chunk seed: %w", eofIsUnexpected(err))
		}
		if seed < -(1<<40) || seed > 1<<40 {
			return nil, false, fmt.Errorf("tracefile: chunk seed %d out of range", seed)
		}
		d.lastPage[cpu] = seed
		d.needSeed[cpu] = false
	}
	byteLen, err := binary.ReadUvarint(d.br)
	if err != nil {
		return nil, false, fmt.Errorf("tracefile: reading chunk length: %w", eofIsUnexpected(err))
	}
	if byteLen > maxChunkLen {
		return nil, false, fmt.Errorf("tracefile: chunk length %d exceeds limit %d", byteLen, maxChunkLen)
	}
	if flags&chunkSeed != 0 && count > 0 && d.skip[cpu] >= int64(count) {
		// The whole chunk precedes the seek target: skip the stored bytes
		// without inflating or decoding. The next chunk for this CPU
		// reseeds the delta chain.
		if _, err := d.br.Discard(int(byteLen)); err != nil {
			return nil, false, fmt.Errorf("tracefile: skipping chunk payload: %w", eofIsUnexpected(err))
		}
		d.needSeed[cpu] = true
		return nil, true, nil
	}
	if cap(d.chunkBuf) < int(byteLen) {
		d.chunkBuf = make([]byte, byteLen)
	}
	stored := d.chunkBuf[:byteLen]
	if _, err := io.ReadFull(d.br, stored); err != nil {
		return nil, false, fmt.Errorf("tracefile: reading chunk payload: %w", eofIsUnexpected(err))
	}
	if flags&chunkDeflate == 0 {
		return stored, false, nil
	}

	if d.fr == nil {
		d.fr = flate.NewReader(bytes.NewReader(stored))
	} else if err := d.fr.(flate.Resetter).Reset(bytes.NewReader(stored), nil); err != nil {
		return nil, false, fmt.Errorf("tracefile: resetting inflate: %w", err)
	}
	d.rawBuf.Reset()
	// Cap the copy one past the declared size so an over-long stream is
	// detected without unbounded buffering.
	n, err := io.Copy(&d.rawBuf, io.LimitReader(d.fr, int64(rawLen)+1))
	if err != nil {
		return nil, false, fmt.Errorf("tracefile: inflating chunk: %w", eofIsUnexpected(err))
	}
	if uint64(n) != rawLen {
		return nil, false, fmt.Errorf("tracefile: chunk inflated to %d bytes, header declared %d", n, rawLen)
	}
	return d.rawBuf.Bytes(), false, nil
}

// Drain decodes the remaining records without delivering them, returning
// the per-CPU counts (the info command and tests). It consumes the
// streams through eachRecord's bounded round-robin pull.
func (d *Reader) Drain() ([]int64, error) {
	counts := make([]int64, d.h.CPUs)
	err := eachRecord(d, func(cpu int, _ trace.Ref) error {
		counts[cpu]++
		return nil
	})
	return counts, err
}

// Workload wraps the reader's streams and header as a replayable
// workload: home placement and segment size come from the header, and
// Check surfaces any decode error after the run.
func (d *Reader) Workload() *workloads.Workload {
	w := d.h.describe(&workloads.Workload{Streams: d.streams})
	w.Check = d.Err
	return w
}

// Decode reads the rest of the trace into memory, one reference slice per
// CPU, and wraps the slices as a workload whose Fresh cursors replay them
// any number of times, concurrently too; n is the number of records. It
// gives up and returns a nil workload once more than limit records are
// decoded, so a caller bounds what an untrusted input makes it hold; the
// reader is spent either way. A malformed or truncated trace returns the
// error its streams would have parked in Err.
func (d *Reader) Decode(limit int64) (w *workloads.Workload, n int64, err error) {
	refs := make([][]trace.Ref, d.h.CPUs)
	// Round-robin batches keep the demux queues as small as a replay's.
	for live := true; live; {
		live = false
		for cpu, s := range d.streams {
			b := s.NextBatch(chunkRecords)
			if len(b) == 0 {
				continue
			}
			if n += int64(len(b)); n > limit {
				return nil, 0, nil
			}
			refs[cpu] = append(refs[cpu], b...)
			live = true
		}
	}
	if d.err != nil {
		return nil, 0, d.err
	}
	for cpu, r := range refs {
		if cap(r)-len(r) > len(r)/8 { // drop append's spare capacity
			refs[cpu] = append([]trace.Ref(nil), r...)
		}
	}
	return d.h.describe(workloads.FromRefs(d.h.Name, refs, d.h.HomeFunc(), d.h.SharedPages)), n, nil
}

// describe fills in a trace workload's header-derived fields.
func (h Header) describe(w *workloads.Workload) *workloads.Workload {
	w.Name = h.Name
	w.Description = fmt.Sprintf("recorded trace (%d cpus, %d pages)", h.CPUs, h.SharedPages)
	w.PaperInput = "(recorded trace)"
	w.Homes = h.HomeFunc()
	w.SharedPages = h.SharedPages
	return w
}
