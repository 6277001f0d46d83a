// Package trace defines the memory-reference streams the simulated
// processors execute. Workloads produce one stream per CPU; the machine
// pulls references in batches, so a trace file's streams decode lazily
// without materializing the full trace.
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

// Stream produces a CPU's references in program order. Every stream the
// simulator reads is one of three: a slice (SliceStream), a trace file's
// per-CPU stream (tracefile.Reader), or a sweep variant's mapping of
// either (harness).
type Stream interface {
	// Next returns the next reference, or ok=false at end of program.
	Next() (Ref, bool)
	// NextBatch returns a view of up to max consecutive references,
	// empty at end of program. The view aliases stream-owned storage and
	// is valid only until the next call on the stream. The machine copies
	// each view into a buffer of its own with one copy and reads the
	// records from there, so one interface call (and, for decoded trace
	// files, the chunk bookkeeping) serves the whole batch.
	NextBatch(max int) []Ref
	// SeekRecord positions the stream so the next record returned is
	// record number n (records consumed so far), counting barriers: a
	// forked or resumed replay starts there. The tracefile Reader skips
	// whole chunks so a fork does not re-decode the shared prefix; a
	// slice moves its cursor.
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

// NextBatch implements Stream.
func (s *SliceStream) NextBatch(max int) []Ref {
	n := len(s.refs) - s.pos
	if n > max {
		n = max
	}
	out := s.refs[s.pos : s.pos+n]
	s.pos += n
	return out
}

// SeekRecord implements Stream.
func (s *SliceStream) SeekRecord(n int64) error {
	if n < 0 || n > int64(len(s.refs)) {
		return fmt.Errorf("trace: seek to record %d of %d", n, len(s.refs))
	}
	s.pos = int(n)
	return nil
}
