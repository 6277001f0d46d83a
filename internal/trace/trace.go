// Package trace defines the memory-reference streams the simulated
// processors execute. Workloads produce one stream per CPU; the machine
// pulls references lazily, so streams can be generated on the fly without
// materializing full traces.
package trace

import (
	"fmt"

	"rnuma/internal/addr"
)

// Ref is one data memory reference, or a barrier marker.
type Ref struct {
	// Page and Off name the referenced block in the global shared segment.
	Page addr.PageNum
	Off  uint16
	// Write distinguishes stores from loads.
	Write bool
	// Gap is the compute time (cycles) the CPU spends before issuing this
	// reference — the non-memory instructions between references.
	Gap uint16
	// Barrier marks a global synchronization point instead of a memory
	// access: the CPU waits until every other active CPU reaches its next
	// barrier (the bulk-synchronous structure of the SPLASH-2 workloads).
	Barrier bool
}

// BarrierRef returns a barrier marker.
func BarrierRef() Ref { return Ref{Barrier: true} }

// Stream produces a CPU's references in program order.
type Stream interface {
	// Next returns the next reference, or ok=false at end of program.
	Next() (Ref, bool)
}

// Batcher is an optional Stream extension for bulk delivery: NextBatch
// returns a view of up to max consecutive references (empty at end of
// program). The view aliases stream-owned storage and is valid only
// until the next call on the stream. The machine copies each view into
// a buffer of its own with one copy and reads the records from there,
// so one interface call (and, for decoded trace files, the chunk
// bookkeeping) serves the whole batch.
type Batcher interface {
	Stream
	NextBatch(max int) []Ref
}

// Seeker is an optional Stream extension for forked replay: Seek
// positions the stream so the next record returned is record number n
// (records consumed so far), counting barriers. The tracefile Reader
// implements it with chunk-index skipping so a fork does not re-decode
// the shared prefix; in-memory streams implement it by moving a cursor.
type Seeker interface {
	Stream
	SeekRecord(n int64) error
}

// SliceStream replays a pre-built reference slice.
type SliceStream struct {
	refs []Ref
	pos  int
}

// FromSlice wraps a slice of references as a Stream.
func FromSlice(refs []Ref) *SliceStream { return &SliceStream{refs: refs} }

// Next implements Stream.
func (s *SliceStream) Next() (Ref, bool) {
	if s.pos >= len(s.refs) {
		return Ref{}, false
	}
	r := s.refs[s.pos]
	s.pos++
	return r, true
}

// NextBatch implements Batcher.
func (s *SliceStream) NextBatch(max int) []Ref {
	n := len(s.refs) - s.pos
	if n > max {
		n = max
	}
	out := s.refs[s.pos : s.pos+n]
	s.pos += n
	return out
}

// Seek implements Seeker.
func (s *SliceStream) SeekRecord(n int64) error {
	if n < 0 || n > int64(len(s.refs)) {
		return fmt.Errorf("trace: seek to record %d of %d", n, len(s.refs))
	}
	s.pos = int(n)
	return nil
}

// Len returns the total number of references in the slice.
func (s *SliceStream) Len() int { return len(s.refs) }

// FuncStream adapts a generator function to a Stream.
type FuncStream func() (Ref, bool)

// Next implements Stream.
func (f FuncStream) Next() (Ref, bool) { return f() }

// Concat chains streams back to back. Nil entries are skipped, so
// callers can assemble the list conditionally without guarding each slot.
func Concat(streams ...Stream) Stream {
	i := 0
	return FuncStream(func() (Ref, bool) {
		for i < len(streams) {
			if s := streams[i]; s != nil {
				if r, ok := s.Next(); ok {
					return r, true
				}
			}
			i++
		}
		return Ref{}, false
	})
}

// Repeat replays the slice n times (phases/iterations). n <= 0 and an
// empty slice both yield an immediately-exhausted stream. The slice is
// aliased, not copied: mutating it between pulls changes what replays.
func Repeat(refs []Ref, n int) Stream {
	if n <= 0 || len(refs) == 0 {
		return Empty()
	}
	iter, pos := 0, 0
	return FuncStream(func() (Ref, bool) {
		if iter >= n {
			return Ref{}, false
		}
		r := refs[pos]
		pos++
		if pos == len(refs) {
			iter++
			pos = 0
		}
		return r, true
	})
}

// Empty is a stream with no references (an idle CPU).
func Empty() Stream { return FromSlice(nil) }

// Count drains a stream and returns its length (testing helper).
func Count(s Stream) int {
	n := 0
	for {
		if _, ok := s.Next(); !ok {
			return n
		}
		n++
	}
}
