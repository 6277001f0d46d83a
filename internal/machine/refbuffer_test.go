package machine

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"rnuma/internal/addr"
	"rnuma/internal/config"
	"rnuma/internal/stats"
	"rnuma/internal/trace"
)

// clobberStream is a trace.Stream whose every batch view aliases one
// array that it overwrites on the next call, as the trace-file reader's demux
// queues do: a machine that read a view after pulling again would see
// poisoned records.
type clobberStream struct {
	refs []trace.Ref
	pos  int
	arr  []trace.Ref
}

// poison is what a clobbered slot holds: a barrier on a page no test
// touches, so reading it would derail any run.
var poison = trace.Ref{Page: 1 << 20, Barrier: true}

func (s *clobberStream) Next() (trace.Ref, bool) {
	if s.pos == len(s.refs) {
		return trace.Ref{}, false
	}
	s.pos++
	return s.refs[s.pos-1], true
}

func (s *clobberStream) NextBatch(max int) []trace.Ref {
	if cap(s.arr) < max {
		s.arr = make([]trace.Ref, max)
	}
	s.arr = s.arr[:cap(s.arr)]
	for i := range s.arr {
		s.arr[i] = poison
	}
	n := copy(s.arr[:max], s.refs[s.pos:])
	s.pos += n
	return s.arr[:n]
}

func (s *clobberStream) SeekRecord(n int64) error {
	if n < 0 || n > int64(len(s.refs)) {
		return fmt.Errorf("clobberStream: seek to %d of %d", n, len(s.refs))
	}
	s.pos = int(n)
	return nil
}

// streamKinds wraps per-CPU reference slices as each kind of batch view
// the machine copies: a slice (views alias the slice) and a stream that
// clobbers its views.
var streamKinds = []struct {
	name string
	wrap func([]trace.Ref) trace.Stream
}{
	{"slice", func(refs []trace.Ref) trace.Stream { return trace.FromSlice(refs) }},
	{"clobber", func(refs []trace.Ref) trace.Stream { return &clobberStream{refs: refs} }},
}

func wrapAll(perCPU [][]trace.Ref, wrap func([]trace.Ref) trace.Stream) []trace.Stream {
	out := make([]trace.Stream, len(perCPU))
	for i, refs := range perCPU {
		out[i] = wrap(refs)
	}
	return out
}

// bufferRefs builds the tiny machine's per-CPU traffic: random shared
// references whose lengths are no multiple of batchSize, with barriers
// at the same record counts on every busy CPU, and one idle CPU.
func bufferRefs(seed int64) [][]trace.Ref {
	out := make([][]trace.Ref, 4)
	for c := 0; c < 3; c++ {
		rng := rand.New(rand.NewSource(seed + int64(c)*7919))
		n := 5*batchSize + 17 + 9*c
		for i := 0; i < n; i++ {
			if i%(2*batchSize+3) == batchSize {
				out[c] = append(out[c], trace.BarrierRef())
				continue
			}
			out[c] = append(out[c], trace.Ref{
				Page:  addr.PageNum(rng.Intn(10)),
				Off:   uint16(rng.Intn(8)),
				Write: rng.Float64() < 0.35,
				Gap:   uint16(rng.Intn(50)),
			})
		}
	}
	return out
}

// bufferSystems is every protocol of the tiny machine plus its ideal
// baseline.
func bufferSystems() []config.System {
	ideal := tinySys(config.CCNUMA)
	ideal.Name = "test-ideal"
	ideal.BlockCacheBytes = config.InfiniteBlockCache
	return []config.System{tinySys(config.CCNUMA), tinySys(config.SCOMA), tinySys(config.RNUMA), ideal}
}

func runStreams(t *testing.T, sys config.System, streams []trace.Stream) *stats.Run {
	t.Helper()
	m, err := New(sys, WithHomes(evenOddHomes), WithVerify())
	if err != nil {
		t.Fatal(err)
	}
	run, err := m.Run(streams)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// TestStreamKindsRunIdentically: whether a stream's batch views alias
// its records or storage it overwrites on the next pull, the machine
// copies the same records and a run's statistics are identical.
func TestStreamKindsRunIdentically(t *testing.T) {
	for _, sys := range bufferSystems() {
		t.Run(sys.Name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				refs := bufferRefs(seed)
				want := runStreams(t, sys, wrapAll(refs, streamKinds[0].wrap))
				if want.Refs == 0 {
					t.Fatal("reference run processed nothing")
				}
				for _, k := range streamKinds[1:] {
					if got := runStreams(t, sys, wrapAll(refs, k.wrap)); !reflect.DeepEqual(got, want) {
						t.Errorf("seed %d: %s streams diverge from slice streams:\n got %+v\nwant %+v", seed, k.name, got, want)
					}
				}
			}
		})
	}
}

// TestPauseAtBatchBoundaries: a run paused one reference before, at and
// after its CPU's buffer boundary, then snapshotted, restored and resumed
// over fresh streams seeked to the snapshot's cursors, finishes with the
// uninterrupted run's statistics, and so does the paused machine itself.
// One CPU does all the work, so the pause lands exactly on its buffer's
// edge; the snapshot counts the records handed to it, not the records
// the stream has already given up to the buffer.
func TestPauseAtBatchBoundaries(t *testing.T) {
	refs := bufferRefs(5)
	refs[0] = refs[0][:batchSize+1+batchSize/2]
	for i := range refs[0] {
		refs[0][i].Barrier = false // a lone busy CPU cannot wait for others
	}
	refs[1], refs[2] = nil, nil
	for _, sys := range bufferSystems() {
		t.Run(sys.Name, func(t *testing.T) {
			newM := func() *Machine {
				m, err := New(sys, WithHomes(evenOddHomes))
				if err != nil {
					t.Fatal(err)
				}
				return m
			}
			want, err := newM().Run(wrapAll(refs, streamKinds[0].wrap))
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int64{batchSize - 1, batchSize, batchSize + 1} {
				for _, sk := range streamKinds {
					trunk := newM()
					if err := trunk.Start(wrapAll(refs, sk.wrap)); err != nil {
						t.Fatal(err)
					}
					if _, err := trunk.RunUntilRefs(k); err != nil {
						t.Fatal(err)
					}
					if got := trunk.cpus[0].Consumed; got != k {
						t.Fatalf("pause at %d refs left CPU 0 at record %d", k, got)
					}
					snap, err := trunk.Snapshot()
					if err != nil {
						t.Fatal(err)
					}
					fork := newM()
					if err := fork.Restore(snap); err != nil {
						t.Fatal(err)
					}
					if err := fork.ResumeWith(wrapAll(refs, streamKinds[1].wrap)); err != nil {
						t.Fatal(err)
					}
					forked, err := fork.Finish()
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(forked, want) {
						t.Errorf("%s streams, fork at %d refs diverged:\n fork %+v\n full %+v", sk.name, k, forked, want)
					}
					continued, err := trunk.Finish()
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(continued, want) {
						t.Errorf("%s streams, run continued after a pause at %d refs diverged", sk.name, k)
					}
				}
			}
		})
	}
}

// TestRunAllocsIndependentOfLength: the event loop allocates nothing per
// reference. Under each protocol and the ideal baseline, a run eight
// times as long over the same pages and blocks allocates exactly as often
// as the short run: the ideal machine's infinite block cache creates one
// entry per block, which a refill after an invalidation reuses.
func TestRunAllocsIndependentOfLength(t *testing.T) {
	short := bufferRefs(9)
	long := make([][]trace.Ref, len(short))
	for i, refs := range short {
		for r := 0; r < 8; r++ {
			long[i] = append(long[i], refs...)
		}
	}
	for _, sys := range bufferSystems() {
		allocs := func(refs [][]trace.Ref) float64 {
			return testing.AllocsPerRun(5, func() {
				m, err := New(sys, WithHomes(evenOddHomes))
				if err != nil {
					panic(err)
				}
				if _, err := m.Run(wrapAll(refs, streamKinds[0].wrap)); err != nil {
					panic(err)
				}
			})
		}
		if s, l := allocs(short), allocs(long); l != s {
			t.Errorf("%s: a run 8x as long allocates %.0f times, the short run %.0f", sys.Name, l, s)
		}
	}
}
