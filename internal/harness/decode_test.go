package harness

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"rnuma/internal/config"
	"rnuma/internal/telemetry"
	"rnuma/internal/tracefile"
)

// The shared decode's tests: a job decodes only the capture it reads,
// at most once, and reads every sweep variant through its maps from that
// decode; every replay of the decode equals a streaming replay of the
// same trace; and a trace past the harness's decode budget streams with
// the same results.

// decodesNow reads the in-memory trace decode counter.
func decodesNow() int64 { return traceWork.decodes.Load() }

// decodeStudy is one cold job over a capture. variants is the number of
// variants it simulates, each mapped from the capture and hashed once
// for its key; a grid of two transforms maps each cell straight from the
// capture, through both maps.
type decodeStudy struct {
	name     string
	run      func(h *Harness, data []byte) error
	variants int64
}

func sweepStudy(axis Axis, vals []SweepValue) func(*Harness, []byte) error {
	return func(h *Harness, data []byte) error {
		_, _, err := h.Sweep(data, axis, vals)
		return err
	}
}

func gridStudy(y Axis, vals []SweepValue) func(*Harness, []byte) error {
	return func(h *Harness, data []byte) error {
		_, err := h.SweepGrid(data, AxisBlockSize, memoBlocks, y, vals)
		return err
	}
}

var memoPages = []SweepValue{IntValue(2048), IntValue(8192)}

// decodeStudies covers every sweep axis and both kinds of grid line.
var decodeStudies = []decodeStudy{
	{"nodes", sweepStudy(AxisNodes, memoNodes), 2},
	{"dilate", sweepStudy(AxisDilate, memoDilate), 2},
	{"block", sweepStudy(AxisBlockSize, memoBlocks), 2},
	{"page", sweepStudy(AxisPageSize, memoPages), 2},
	{"threshold", sweepStudy(AxisThreshold, memoThresholds), 0},
	{"block x threshold", gridStudy(AxisThreshold, memoThresholds), 2},
	{"block x dilate", gridStudy(AxisDilate, memoDilate), 4},
}

// TestColdRunsDecodeEachTraceOnce counts trace work. A cold study keys
// its capture and every variant on memo misses and simulates them, fork
// trunks and forks included, yet decodes only its capture, once, and
// maps and hashes each variant once; a rerun with the memo warm but the
// store cold decodes the capture once and maps and hashes each variant
// once, to check its memoized key; a warm resubmission decodes, maps and
// hashes nothing.
func TestColdRunsDecodeEachTraceOnce(t *testing.T) {
	const scale = 0.02
	data := recordCatalog(t, "fft", scale)
	for _, s := range decodeStudies {
		t.Run(s.name, func(t *testing.T) {
			isolateMemo(t)
			store := NewMemoryStore()
			for _, pass := range []struct {
				name                  string
				store                 Store
				decodes, maps, hashes int64
			}{
				{"cold", store, 1, s.variants, s.variants + 1},
				{"memo-warm store-cold", NewMemoryStore(), 1, s.variants, s.variants},
				{"warm", store, 0, 0, 0},
			} {
				h := New(scale)
				h.Store = pass.store
				h.Workers = 2
				d0 := decodesNow()
				m0, hs0 := traceWorkNow()
				if err := s.run(h, data); err != nil {
					t.Fatal(err)
				}
				m1, hs1 := traceWorkNow()
				if got := decodesNow() - d0; got != pass.decodes {
					t.Errorf("%s: %d decodes, want %d", pass.name, got, pass.decodes)
				}
				if m1-m0 != pass.maps || hs1-hs0 != pass.hashes {
					t.Errorf("%s: %d variants mapped, %d hashes; want %d and %d", pass.name, m1-m0, hs1-hs0, pass.maps, pass.hashes)
				}
				if pass.decodes > 0 && h.Simulations() == 0 {
					t.Errorf("%s: simulated nothing", pass.name)
				}
			}
		})
	}

	t.Run("replay thresholds", func(t *testing.T) {
		d0 := decodesNow()
		if _, err := Replay(bytes.NewReader(data), config.Base(config.RNUMA), WithThresholds(8, 64, 512)); err != nil {
			t.Fatal(err)
		}
		if got := decodesNow() - d0; got != 1 {
			t.Errorf("Replay WithThresholds decoded its input %d times, want 1", got)
		}
	})

	// A replay job's source: keyed on a memo miss, then simulated under
	// two systems, from one decode.
	t.Run("trace source", func(t *testing.T) {
		isolateMemo(t)
		d0 := decodesNow()
		src, err := TraceSource(data)
		if err != nil {
			t.Fatal(err)
		}
		h := New(scale)
		if err := h.Register(src); err != nil {
			t.Fatal(err)
		}
		for _, sys := range []config.System{config.Base(config.RNUMA), config.Ideal()} {
			if _, err := h.Run(src.Name(), sys); err != nil {
				t.Fatal(err)
			}
		}
		if got := decodesNow() - d0; got != 1 {
			t.Errorf("a replay job decoded its trace %d times, want 1", got)
		}
		if h.decodes.held.Load() == 0 {
			t.Error("the registering harness holds no decode")
		}
	})
}

// storeRuns returns a memory store's completed runs by key.
func storeRuns(t *testing.T, s Store) map[string]any {
	t.Helper()
	ms := s.(*MemoryStore)
	ms.mu.Lock()
	defer ms.mu.Unlock()
	out := make(map[string]any, len(ms.entries))
	for k, e := range ms.entries {
		if e.err != nil {
			t.Fatalf("%s: %v", k, e.err)
		}
		out[k] = e.run
	}
	return out
}

// TestSharedDecodeMatchesStreaming runs every study, probed so that each
// run carries its timeline, under three decode budgets: the default, one
// that holds a single trace, and one that holds none, so every trace
// past it streams as file-backed traces do. Every run in the store, fork
// points included, must be identical across the three.
func TestSharedDecodeMatchesStreaming(t *testing.T) {
	const scale = 0.02
	data := recordCatalog(t, "fft", scale)
	one, err := decodeTrace(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]any
	for _, limit := range []int64{0, one.held + 1, 1} {
		h := New(scale)
		h.Workers = 2
		h.Telemetry = telemetry.Config{Window: 4096}
		h.decodes.limit = limit
		for _, s := range decodeStudies {
			if err := s.run(h, data); err != nil {
				t.Fatalf("limit %d, %s: %v", limit, s.name, err)
			}
		}
		held := h.decodes.held.Load()
		switch {
		case limit == 0 && held <= one.held:
			t.Errorf("default budget holds %d records, want several traces' worth", held)
		case limit == 1 && held != 0:
			t.Errorf("a 1-record budget holds %d records", held)
		case limit > 1 && (held == 0 || held > limit):
			t.Errorf("a %d-record budget holds %d records", limit, held)
		}
		got := storeRuns(t, h.Store)
		if want == nil {
			want = got
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("limit %d: %d runs, default budget %d", limit, len(got), len(want))
		}
		for k, run := range want {
			if !reflect.DeepEqual(got[k], run) {
				t.Errorf("limit %d: %s differs from the decoded run", limit, k)
			}
		}
	}
}

// TestDecodeTraceCap: decodeTrace decodes a trace that fits what is left
// of the budget and charges it, and leaves one that does not to stream,
// uncharged. A streamed trace opens, forks and keys like the decoded one.
func TestDecodeTraceCap(t *testing.T) {
	const scale = 0.02
	data := recordCatalog(t, "fft", scale)
	full, err := decodeTrace(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := full.held
	if full.w == nil || n == 0 {
		t.Fatal("the default budget did not decode a small trace")
	}
	b := &decodeBudget{limit: n}
	if tr, err := decodeTrace(data, b); err != nil || tr.w == nil || b.held.Load() != n {
		t.Fatalf("a budget of exactly %d records: decoded %v, held %d, err %v", n, tr != nil && tr.w != nil, b.held.Load(), err)
	}
	tr, err := decodeTrace(data, b) // nothing left
	if err != nil || tr.w != nil || b.held.Load() != n {
		t.Fatalf("an exhausted budget: decoded %v, held %d, err %v", tr != nil && tr.w != nil, b.held.Load(), err)
	}
	if !reflect.DeepEqual(tr.hdr, full.hdr) {
		t.Error("a streamed trace's header differs from the decoded one's")
	}
	k1, err := full.key()
	if err != nil {
		t.Fatal(err)
	}
	k2, err := tr.key()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := fullKey(t, data)
	if k1 != want || k2 != want {
		t.Errorf("content keys: decoded %s, streamed %s, full decode %s", k1, k2, want)
	}
	sys := config.Base(config.RNUMA)
	ts := []int{4, 64}
	a, _, err := thresholdForkRuns(full, sys, ts, telemetry.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := thresholdForkRuns(tr, sys, ts, telemetry.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, s) {
		t.Error("forks of the streamed trace differ from forks of the decoded one")
	}
}

// TestDecodeErrors: a trace that fails to decode fails the job with the
// decoder's error, whether it is keyed from a decode or by a streaming
// hash, and is never memoized.
func TestDecodeErrors(t *testing.T) {
	isolateMemo(t)
	const scale = 0.02
	data := recordCatalog(t, "fft", scale)
	corrupt := append([]byte(nil), data[:len(data)*2/3]...)
	_, _, want := tracefile.CanonicalHash(bytes.NewReader(corrupt))
	if want == nil {
		t.Fatal("test premise broken: the cut trace decodes")
	}
	for i, run := range []func() error{
		func() error { _, err := TraceSource(corrupt); return err },
		func() error { _, _, err := New(scale).Sweep(corrupt, AxisThreshold, memoThresholds); return err },
		func() error { _, _, err := New(scale).Sweep(corrupt, AxisNodes, memoNodes); return err },
		func() error {
			_, err := Replay(bytes.NewReader(corrupt), config.Base(config.RNUMA), WithThresholds(8, 64))
			return err
		},
	} {
		err := run()
		if err == nil || !strings.HasSuffix(err.Error(), want.Error()) {
			t.Errorf("job %d over a truncated trace: %v, want the decoder's %q", i, err, want)
		}
	}
	traceMemo.Lock()
	n := len(traceMemo.m)
	traceMemo.Unlock()
	if n != 0 {
		t.Errorf("the memo holds %d entries after failed jobs", n)
	}
}

// TestRegisterKeepsFirstSource: re-registering content that is already
// registered under the name is a no-op — lookups return the first
// source, whose decode later jobs share — and different content under
// the name is an error.
func TestRegisterKeepsFirstSource(t *testing.T) {
	const scale = 0.02
	data := recordCatalog(t, "fft", scale)
	a, err := TraceSource(data)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TraceSource(data)
	if err != nil {
		t.Fatal(err)
	}
	if a == b || a.Key() != b.Key() {
		t.Fatal("test premise broken: want two sources with one key")
	}
	h := New(scale)
	for _, src := range []Source{a, b, RenamedSource(b, a.Name())} {
		if err := h.Register(src); err != nil {
			t.Fatal(err)
		}
		if got := h.source(a.Name()); got != a {
			t.Fatalf("after registering %p, lookup returns %p, want the first source %p", src, got, a)
		}
	}
	other, err := TraceSource(dilated(t, data))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Register(other); err == nil || other.Name() != a.Name() {
		t.Errorf("registering different content as %q: %v, want an error", other.Name(), err)
	}
}

// dilated returns the trace with every gap doubled: the same name,
// different content.
func dilated(t *testing.T, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := tracefile.Dilate(&buf, bytes.NewReader(data), tracefile.DilateSpec{Num: 2, Den: 1}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
