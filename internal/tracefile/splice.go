package tracefile

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"

	"rnuma/internal/trace"
)

// This file implements stream-level splicing: operations that read trace
// files through the Reader's per-CPU streams and re-emit them through a
// Writer, so slices and concatenations re-encode cleanly (fresh delta
// chains, fresh chunking) without ever materializing
// a whole trace.

// CutSpec selects a sub-trace.
type CutSpec struct {
	// CPUs lists the source CPU indices whose records to keep; nil keeps
	// every CPU. The output preserves the recorded machine shape — the
	// CPU count, node count, and page homes are unchanged, and dropped
	// CPUs simply contribute empty streams — so any cut replays on the
	// machine the trace was recorded for, with every reference still
	// attributed to its original CPU and node.
	CPUs []int
	// From is the first per-CPU record index kept on each retained
	// stream (0-based, barriers count as records).
	From int64
	// To is one past the last record index kept; <= 0 means to the end
	// of each stream. Cutting [0,N) and [N,0) and concatenating the two
	// pieces with Cat recomposes the original streams exactly.
	To int64
}

// validate checks the spec against a source header and returns the
// per-CPU keep mask (nil CPUs resolves to all-kept).
func (s CutSpec) validate(h Header) ([]bool, error) {
	if s.From < 0 {
		return nil, fmt.Errorf("tracefile: cut from %d negative", s.From)
	}
	if s.To > 0 && s.To <= s.From {
		return nil, fmt.Errorf("tracefile: cut range [%d,%d) empty", s.From, s.To)
	}
	keep := make([]bool, h.CPUs)
	if s.CPUs == nil {
		for i := range keep {
			keep[i] = true
		}
		return keep, nil
	}
	if len(s.CPUs) == 0 {
		return nil, fmt.Errorf("tracefile: cut keeps no cpus")
	}
	for _, c := range s.CPUs {
		if c < 0 || c >= h.CPUs {
			return nil, fmt.Errorf("tracefile: cut cpu %d out of range [0,%d)", c, h.CPUs)
		}
		if keep[c] {
			return nil, fmt.Errorf("tracefile: cut cpu %d listed twice", c)
		}
		keep[c] = true
	}
	return keep, nil
}

// eachRecord drains every stream of a Reader round-robin — so the demux
// queues stay bounded no matter which streams the caller cares about —
// invoking fn for each record in the canonical interleaved order. It
// surfaces both fn's error and the reader's sticky decode error.
func eachRecord(d *Reader, fn func(cpu int, r trace.Ref) error) error {
	if err := roundRobin(d.Streams(), fn); err != nil {
		return err
	}
	return d.Err()
}

// roundRobin drains streams in the canonical interleaved order: each
// round takes one record from every stream not yet ended, in CPU order.
func roundRobin(streams []trace.Stream, fn func(cpu int, r trace.Ref) error) error {
	live := append([]trace.Stream(nil), streams...)
	for remaining := len(live); remaining > 0; {
		remaining = 0
		for cpu, s := range live {
			if s == nil {
				continue
			}
			r, ok := s.Next()
			if !ok {
				live[cpu] = nil
				continue
			}
			remaining++
			if err := fn(cpu, r); err != nil {
				return err
			}
		}
	}
	return nil
}

// Cut copies the selected slice of src to dst, re-encoded with the given
// Writer's one encoding. The source is
// drained fully — including discarded CPUs and records — so truncation
// and corruption anywhere in the input still surface as errors. It
// returns the record count written.
func Cut(dst io.Writer, src io.Reader, sel CutSpec) (int64, error) {
	d, err := NewReader(src)
	if err != nil {
		return 0, err
	}
	h := d.Header()
	keep, err := sel.validate(h)
	if err != nil {
		return 0, err
	}
	tw, err := NewWriter(dst, h)
	if err != nil {
		return 0, err
	}
	idx := make([]int64, h.CPUs) // per-CPU record index in the source
	err = eachRecord(d, func(cpu int, r trace.Ref) error {
		i := idx[cpu]
		idx[cpu]++
		if !keep[cpu] || i < sel.From || (sel.To > 0 && i >= sel.To) {
			return nil
		}
		return tw.Append(cpu, r)
	})
	if err == nil {
		err = tw.Close()
	}
	return tw.Refs(), err
}

// Cat concatenates traces of identical machine shape (geometry, CPU and
// node counts, shared segment, and page homes): the output's per-CPU
// streams are each input's stream in order. The header (including the
// workload name) comes from the first input, so cutting a trace into
// range slices and concatenating them recomposes it exactly. Returns the
// record count written.
func Cat(dst io.Writer, srcs []io.Reader) (int64, error) {
	if len(srcs) == 0 {
		return 0, fmt.Errorf("tracefile: cat of no inputs")
	}
	var tw *Writer
	var first Header
	for i, src := range srcs {
		d, err := NewReader(src)
		if err != nil {
			return refsOf(tw), fmt.Errorf("input %d: %w", i, err)
		}
		h := d.Header()
		if i == 0 {
			first = h
			if tw, err = NewWriter(dst, first); err != nil {
				return 0, err
			}
		} else if err := sameShape(first, h); err != nil {
			return tw.Refs(), fmt.Errorf("input %d: %w", i, err)
		}
		if err := eachRecord(d, tw.Append); err != nil {
			return tw.Refs(), fmt.Errorf("input %d: %w", i, err)
		}
	}
	return tw.Refs(), tw.Close()
}

func refsOf(tw *Writer) int64 {
	if tw == nil {
		return 0
	}
	return tw.Refs()
}

// sameShape reports whether two headers describe the same machine shape
// and page placement (names may differ).
func sameShape(a, b Header) error {
	switch {
	case a.Geometry != b.Geometry:
		return fmt.Errorf("tracefile: geometry %v vs %v", b.Geometry, a.Geometry)
	case a.CPUs != b.CPUs:
		return fmt.Errorf("tracefile: %d cpus vs %d", b.CPUs, a.CPUs)
	case a.Nodes != b.Nodes:
		return fmt.Errorf("tracefile: %d nodes vs %d", b.Nodes, a.Nodes)
	case a.SharedPages != b.SharedPages:
		return fmt.Errorf("tracefile: %d shared pages vs %d", b.SharedPages, a.SharedPages)
	}
	for p := range a.Homes {
		if a.Homes[p] != b.Homes[p] {
			return fmt.Errorf("tracefile: page %d homed at %d vs %d", p, b.Homes[p], a.Homes[p])
		}
	}
	return nil
}

// CanonicalHash identifies a trace's semantic content independently of
// its encoding: the digest covers the header shape and every record in a
// fixed round-robin order, never the bytes on disk. Version 1 and
// version 2 encodings, recompressions, and cut+cat recompositions of the
// same reference streams therefore share a hash — which is exactly what
// memoization wants to key on.
func CanonicalHash(r io.Reader) ([sha256.Size]byte, Header, error) {
	d, err := NewReader(r)
	if err != nil {
		return [sha256.Size]byte{}, Header{}, err
	}
	sum, err := CanonicalHashStreams(d.h, d.Streams())
	if derr := d.Err(); derr != nil {
		err = derr
	}
	if err != nil {
		return [sha256.Size]byte{}, d.h, err
	}
	return sum, d.h, nil
}

// CanonicalHashStreams is CanonicalHash over a trace already decoded: its
// header (homes included) and one stream per CPU, which it drains. It
// hashes the same byte sequence — the header fields, the homes, then
// every record in eachRecord's round-robin order — so a decoded trace
// keys exactly as any of its encodings does. The header and every record
// are checked as the Writer checks them: streams no encoding could carry
// fail instead of getting a key.
func CanonicalHashStreams(h Header, streams []trace.Stream) ([sha256.Size]byte, error) {
	var sum [sha256.Size]byte
	if err := h.Validate(); err != nil {
		return sum, err
	}
	// The sequence is hashed in runs of about hashRun bytes: fewer Write
	// calls, the same digest.
	const hashRun = 4096
	hash := sha256.New()
	buf := make([]byte, 0, hashRun+64+len(h.Name))
	buf = append(buf, "rntr-canonical-1\x00"...)
	buf = append(buf, byte(h.Geometry.BlockShift), byte(h.Geometry.PageShift))
	buf = binary.AppendUvarint(buf, uint64(h.CPUs))
	buf = binary.AppendUvarint(buf, uint64(h.Nodes))
	buf = binary.AppendUvarint(buf, uint64(h.SharedPages))
	buf = binary.AppendUvarint(buf, uint64(len(h.Name)))
	buf = append(buf, h.Name...)
	for _, n := range h.Homes {
		buf = binary.AppendUvarint(buf, uint64(n))
		if len(buf) >= hashRun {
			hash.Write(buf)
			buf = buf[:0]
		}
	}
	err := roundRobin(streams, func(cpu int, rec trace.Ref) error {
		if err := h.checkRecord(cpu, &rec); err != nil {
			return err
		}
		buf = binary.AppendUvarint(buf, uint64(cpu))
		var flags byte
		if rec.Write {
			flags |= flagWrite
		}
		if rec.Barrier {
			flags |= flagBarrier
		}
		buf = append(buf, flags)
		buf = binary.AppendUvarint(buf, uint64(rec.Page))
		buf = binary.AppendUvarint(buf, uint64(rec.Off))
		buf = binary.AppendUvarint(buf, uint64(rec.Gap))
		if len(buf) >= hashRun {
			hash.Write(buf)
			buf = buf[:0]
		}
		return nil
	})
	if err != nil {
		return sum, err
	}
	hash.Write(buf)
	copy(sum[:], hash.Sum(nil))
	return sum, nil
}
