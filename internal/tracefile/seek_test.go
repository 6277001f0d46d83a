package tracefile

import (
	"bytes"
	"reflect"
	"testing"

	"rnuma/internal/addr"
	"rnuma/internal/trace"
)

// drainStream pulls a stream dry.
func drainStream(s trace.Stream) []trace.Ref {
	var out []trace.Ref
	for {
		r, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, r)
	}
}

// TestReaderSeekRecord: seeking every reader stream forward delivers
// exactly the record suffix, at cursors inside the first chunk, on chunk
// boundaries (chunks hold 4096 records), deep in later chunks — where
// whole prefix chunks are discarded without decoding — and at the very
// end of the stream.
func TestReaderSeekRecord(t *testing.T) {
	h := testHeader()
	const perCPU = 10000 // three chunks per CPU
	refs := randRefs(h, perCPU, 21)
	data := encode(t, h, refs)

	for _, k := range []int64{0, 1, 100, 4095, 4096, 4097, 9000, perCPU} {
		d, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		streams := d.Streams()
		// Seek every stream before pulling any, the pattern ResumeWith
		// uses, so whole-chunk skipping sees all cursors.
		for c, s := range streams {
			if err := s.SeekRecord(k); err != nil {
				t.Fatalf("seek cpu %d to %d: %v", c, k, err)
			}
		}
		for c, s := range streams {
			got := drainStream(s)
			want := append([]trace.Ref(nil), refs[c][k:]...)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("cpu %d after seek to %d: got %d records, want %d (first diff near start)", c, k, len(got), len(want))
			}
		}
		if err := d.Err(); err != nil {
			t.Fatalf("seek to %d: %v", k, err)
		}
	}
}

// TestReaderSeekAfterConsume: a seek that lands past already-delivered
// records discards the queued middle; a seek behind the cursor is a
// backward seek and fails.
func TestReaderSeekAfterConsume(t *testing.T) {
	h := testHeader()
	refs := randRefs(h, 200, 9)
	data := encode(t, h, refs)
	d, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	s := d.Streams()[2]
	for i := 0; i < 30; i++ {
		if _, ok := s.Next(); !ok {
			t.Fatal("short stream")
		}
	}
	if err := s.SeekRecord(150); err != nil {
		t.Fatal(err)
	}
	got := drainStream(s)
	if want := refs[2][150:]; !reflect.DeepEqual(got, want) {
		t.Fatalf("after consume+seek: %d records, want %d", len(got), len(want))
	}
	if err := s.SeekRecord(10); err == nil {
		t.Error("backward seek accepted")
	}
	// Seeking to the current cursor is a no-op, never an error.
	if err := s.SeekRecord(200); err != nil {
		t.Errorf("seek to current end: %v", err)
	}
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestSliceStreamSeekRecord covers the in-memory seeker used by machine
// tests and generated workloads.
func TestSliceStreamSeekRecord(t *testing.T) {
	refs := randRefs(testHeader(), 50, 3)[0]
	s := trace.FromSlice(refs)
	if err := s.SeekRecord(20); err != nil {
		t.Fatal(err)
	}
	got := drainStream(s)
	if !reflect.DeepEqual(got, refs[20:]) {
		t.Fatal("slice seek suffix differs")
	}
	if err := s.SeekRecord(int64(len(refs)) + 1); err == nil {
		t.Error("seek past the end accepted")
	}
	if err := s.SeekRecord(-1); err == nil {
		t.Error("negative seek accepted")
	}
	// SliceStream seeks are random-access: backward is fine.
	if err := s.SeekRecord(0); err != nil {
		t.Errorf("backward slice seek: %v", err)
	}
}

// TestReaderNextBatch: the zero-copy batch path delivers exactly the
// records one-at-a-time Next would, in windows bounded by max, and the
// two delivery styles interleave on one stream.
func TestReaderNextBatch(t *testing.T) {
	h := testHeader()
	const perCPU = 5000 // crosses a chunk boundary
	refs := randRefs(h, perCPU, 17)
	d, err := NewReader(bytes.NewReader(encode(t, h, refs)))
	if err != nil {
		t.Fatal(err)
	}
	for c, s := range d.Streams() {
		var got []trace.Ref
		for {
			batch := s.NextBatch(97)
			if len(batch) == 0 {
				break
			}
			if len(batch) > 97 {
				t.Fatalf("cpu %d: batch of %d exceeds max 97", c, len(batch))
			}
			got = append(got, batch...)
			if r, ok := s.Next(); ok { // interleave the scalar path
				got = append(got, r)
			}
		}
		if !reflect.DeepEqual(got, refs[c]) {
			t.Fatalf("cpu %d: batch drain got %d records, want %d", c, len(got), len(refs[c]))
		}
	}
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestReaderWorkload: the reader wraps its header and streams as a
// replayable workload whose Check surfaces decode state.
func TestReaderWorkload(t *testing.T) {
	h := testHeader()
	refs := randRefs(h, 50, 5)
	d, err := NewReader(bytes.NewReader(encode(t, h, refs)))
	if err != nil {
		t.Fatal(err)
	}
	w := d.Workload()
	if w.Name != h.Name || w.SharedPages != h.SharedPages || len(w.Streams) != h.CPUs {
		t.Fatalf("workload header mismatch: %q/%d pages/%d streams", w.Name, w.SharedPages, len(w.Streams))
	}
	home := h.HomeFunc()
	for p := 0; p < h.SharedPages; p++ {
		if w.Homes(addr.PageNum(p)) != home(addr.PageNum(p)) {
			t.Fatalf("workload home for page %d differs from the header map", p)
		}
	}
	for _, s := range w.Streams {
		drainStream(s)
	}
	if err := w.Check(); err != nil {
		t.Fatal(err)
	}
}
