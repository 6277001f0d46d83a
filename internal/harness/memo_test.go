package harness

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"rnuma/internal/config"
	"rnuma/internal/tracefile"
	"rnuma/internal/workloads"
)

// The trace memo's tests. The memo is process-wide, so each test that
// counts trace work or depends on what the memo holds starts from an
// empty memo (isolateMemo) and puts the process's back afterwards.

// isolateMemo gives the test an empty trace memo.
func isolateMemo(t *testing.T) {
	t.Helper()
	traceMemo.Lock()
	saved := traceMemo.m
	traceMemo.m = make(map[derivation]traceInfo)
	traceMemo.Unlock()
	t.Cleanup(func() {
		traceMemo.Lock()
		traceMemo.m = saved
		traceMemo.Unlock()
	})
}

// traceWorkNow reads the variant-mapping and canonical-hash counters.
func traceWorkNow() (maps, hashes int64) {
	return traceWork.maps.Load(), traceWork.hashes.Load()
}

// The memo tests' axis values: small enough that a cold pass over the
// fft capture stays cheap under -race.
var (
	memoNodes      = []SweepValue{IntValue(4), IntValue(8)}
	memoDilate     = []SweepValue{{Num: 1, Den: 2}, IntValue(2)}
	memoThresholds = []SweepValue{IntValue(16), IntValue(64)}
	memoBlocks     = []SweepValue{IntValue(16), IntValue(32)}
)

// memoJobs runs the studies a daemon resubmits: nodes, dilate and
// threshold sweeps, and block x threshold and block x dilate grids, all
// over one capture. It returns every result in order.
func memoJobs(h *Harness, data []byte) ([]any, error) {
	var out []any
	for _, s := range []struct {
		axis Axis
		vals []SweepValue
	}{{AxisNodes, memoNodes}, {AxisDilate, memoDilate}, {AxisThreshold, memoThresholds}} {
		pts, _, err := h.Sweep(data, s.axis, s.vals)
		if err != nil {
			return nil, fmt.Errorf("%s sweep: %w", s.axis, err)
		}
		out = append(out, pts)
	}
	for _, y := range []struct {
		axis Axis
		vals []SweepValue
	}{{AxisThreshold, memoThresholds}, {AxisDilate, memoDilate}} {
		g, err := h.SweepGrid(data, AxisBlockSize, memoBlocks, y.axis, y.vals)
		if err != nil {
			return nil, fmt.Errorf("block x %s grid: %w", y.axis, err)
		}
		out = append(out, g)
	}
	return out, nil
}

// TestWarmResubmissionDoesNoTraceWork is the memo's purpose: a second
// harness resubmitting every study over a warm store learns every store
// key from the memo, so it decodes, maps and hashes nothing,
// simulates nothing, and returns the first harness's results.
func TestWarmResubmissionDoesNoTraceWork(t *testing.T) {
	isolateMemo(t)
	const scale = 0.02
	data := recordCatalog(t, "fft", scale)
	store := NewMemoryStore()

	cold := New(scale)
	cold.Store = store
	want, err := memoJobs(cold, data)
	if err != nil {
		t.Fatal(err)
	}

	warm := New(scale)
	warm.Store = store
	tr0, hs0 := traceWorkNow()
	d0 := decodesNow()
	got, err := memoJobs(warm, data)
	if err != nil {
		t.Fatal(err)
	}
	tr1, hs1 := traceWorkNow()
	if tr1 != tr0 || hs1 != hs0 {
		t.Errorf("warm resubmission mapped %d variants and ran %d canonical hashes, want 0 and 0", tr1-tr0, hs1-hs0)
	}
	if d := decodesNow() - d0; d != 0 {
		t.Errorf("warm resubmission decoded %d traces, want 0", d)
	}
	if n := warm.Simulations(); n != 0 {
		t.Errorf("warm resubmission ran %d simulations", n)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("warm results differ from the cold run:\n got %+v\nwant %+v", got, want)
	}

	// Replay and diffstats jobs load their input: bytes hashed once are
	// never hashed again.
	load(t, New(scale), KindTrace, data)
	if _, hs := traceWorkNow(); hs != hs1 {
		t.Errorf("loading a memoized capture ran %d canonical hashes", hs-hs1)
	}
}

// TestMemoWarmStoreCold resubmits every study with the memo warm but the
// store empty, as after pointing a process at a fresh store: every
// variant is then mapped lazily for its simulations and hashed against
// its memoized key, and the results and the simulation count equal the
// cold run's.
func TestMemoWarmStoreCold(t *testing.T) {
	isolateMemo(t)
	const scale = 0.02
	data := recordCatalog(t, "fft", scale)

	cold := New(scale)
	want, err := memoJobs(cold, data)
	if err != nil {
		t.Fatal(err)
	}

	again := New(scale) // fresh MemoryStore, warm memo
	tr0, hs0 := traceWorkNow()
	got, err := memoJobs(again, data)
	if err != nil {
		t.Fatal(err)
	}
	tr1, hs1 := traceWorkNow()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("memo-warm, store-cold results differ from the cold run:\n got %+v\nwant %+v", got, want)
	}
	if a, b := again.Simulations(), cold.Simulations(); a != b {
		t.Errorf("memo-warm, store-cold run simulated %d configurations, the cold run %d", a, b)
	}
	// Every key came from the memo, so every variant was mapped lazily
	// and hashed exactly once, against its key.
	if tr1 == tr0 || hs1-hs0 != tr1-tr0 {
		t.Errorf("lazy variants: %d mapped, %d canonical hashes; want equal and > 0", tr1-tr0, hs1-hs0)
	}
}

// TestMemoKeysMatchFullDecode checks that every store key learned from
// the memo equals the key a full decode of the variant gives: the same
// content key, and so the same JobKey string for each of the point's
// systems.
func TestMemoKeysMatchFullDecode(t *testing.T) {
	isolateMemo(t)
	const scale = 0.02
	data := recordCatalog(t, "fft", scale)
	first := New(scale)
	if _, err := memoJobs(first, data); err != nil {
		t.Fatal(err)
	}
	h := New(scale)
	h.Store = first.Store
	tr0, hs0 := traceWorkNow()
	if _, err := memoJobs(h, data); err != nil {
		t.Fatal(err)
	}
	if tr, hs := traceWorkNow(); tr != tr0 || hs != hs0 {
		t.Fatalf("the resubmission did trace work (%d variants mapped, %d hashes): its keys are not all from the memo", tr-tr0, hs-hs0)
	}
	hdr := headerOf(t, data)

	// Each variant built without the memo or the maps: encoded by the
	// tracefile io wrappers and fully decoded, X transform then Y.
	type variantCase struct {
		axis          Axis // the last transform's axis
		v             SweepValue
		prefix, label string
		enc           []byte
	}
	var cases []variantCase
	add := func(in []byte, inHdr tracefile.Header, axis Axis, v SweepValue, prefix string) []byte {
		label, _, err := pointOf(inHdr, axis, v)
		if err != nil {
			t.Fatal(err)
		}
		enc := wrapped(t, in, inHdr, axis, v)
		cases = append(cases, variantCase{axis, v, prefix, label, enc})
		return enc
	}
	for _, v := range memoNodes {
		add(data, hdr, AxisNodes, v, "")
	}
	for _, v := range memoDilate {
		add(data, hdr, AxisDilate, v, "")
	}
	for _, x := range memoBlocks {
		encX := add(data, hdr, AxisBlockSize, x, "")
		labelX, _, _ := pointOf(hdr, AxisBlockSize, x)
		for _, y := range memoDilate {
			add(encX, headerOf(t, encX), AxisDilate, y, labelX+", ")
		}
	}
	for _, c := range cases {
		key, hdr := fullKey(t, c.enc)
		name := hdr.Name
		src := h.source(name)
		if src == nil {
			t.Fatalf("no source registered as %q", name)
		}
		if src.Key() != key {
			t.Errorf("%s: memoized key %s, full decode %s", name, src.Key(), key)
		}
		pt, err := newSweepPoint(name, hdr, c.axis, c.v, c.prefix, c.label)
		if err != nil {
			t.Fatal(err)
		}
		for _, sys := range []config.System{pt.ideal, pt.cc, pt.scoma, pt.rn} {
			got := h.KeyFor(NewJob(name, sys)).String()
			want := JobKey{App: key, Sys: sysKey(sys), Seed: h.Seed, Scale: h.Scale}.String()
			if got != want {
				t.Errorf("%s on %s: JobKey %s, full decode %s", name, sys.Name, got, want)
			}
		}
	}

	// The threshold axis registers the capture itself.
	full, _ := fullKey(t, data)
	if src := h.source(hdr.Name + "@threshold"); src == nil || src.Key() != full {
		t.Errorf("threshold sweep's capture source %v, want key %s", src, full)
	}
}

// fullKey is a trace's content key and header from a full decode of its
// bytes.
func fullKey(t *testing.T, data []byte) (string, tracefile.Header) {
	t.Helper()
	sum, hdr, err := tracefile.CanonicalHash(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return traceKey(sum, hdr.Name), hdr
}

// headerOf parses a trace's header.
func headerOf(t *testing.T, data []byte) tracefile.Header {
	t.Helper()
	d, err := tracefile.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return d.Header()
}

// TestMemoStoresOnlyContent checks the memo's two refusals: an input
// that fails to decode or map fails again on every call (failures
// are not memoized), and two inputs that embed the same name but differ
// in content never share a key.
func TestMemoStoresOnlyContent(t *testing.T) {
	const scale = 0.02
	data := recordCatalog(t, "fft", scale)
	corrupt := data[:len(data)-16]
	for i := 0; i < 2; i++ {
		if _, err := New(scale).Load(KindTrace, corrupt, "", "", config.System{}); err == nil {
			t.Errorf("call %d: Load accepted a truncated trace", i)
		}
		if _, _, err := New(scale).Sweep(corrupt, AxisThreshold, memoThresholds); err == nil {
			t.Errorf("call %d: threshold sweep accepted a truncated trace", i)
		}
		if _, _, err := New(scale).Sweep(data, AxisBlockSize, []SweepValue{IntValue(24)}); err == nil {
			t.Errorf("call %d: block sweep accepted a 24-byte block", i)
		}
	}
	if _, ok := memoGet(derivation{input: sha256.Sum256(corrupt)}); ok {
		t.Error("the truncated trace was memoized")
	}
	if _, ok := memoGet(derivation{input: sha256.Sum256(data)}.then(AxisBlockSize, IntValue(24))); ok {
		t.Error("the failed 24-byte block transform was memoized")
	}

	// Same embedded name ("fft"), different references: every gap doubled.
	var buf bytes.Buffer
	if _, err := tracefile.Dilate(&buf, bytes.NewReader(data), tracefile.DilateSpec{Num: 2, Den: 1}); err != nil {
		t.Fatal(err)
	}
	other := buf.Bytes()
	a, b := load(t, New(scale), KindTrace, data), load(t, New(scale), KindTrace, other)
	if a.Name() != b.Name() || a.Key() == b.Key() {
		t.Errorf("captures %q and %q keyed %s and %s; want one name, two keys", a.Name(), b.Name(), a.Key(), b.Key())
	}
	ha, hb := New(scale), New(scale)
	for _, h := range []struct {
		h    *Harness
		data []byte
	}{{ha, data}, {hb, other}} {
		if _, _, err := h.h.Sweep(h.data, AxisBlockSize, []SweepValue{IntValue(64)}); err != nil {
			t.Fatal(err)
		}
	}
	va, vb := ha.source("fft@block64"), hb.source("fft@block64")
	if va == nil || vb == nil || va.Key() == vb.Key() {
		t.Errorf("block variants of different captures share key %v / %v", va, vb)
	}
}

// TestMemoVerifiesLazyVariants plants a wrong key for a variant and
// sweeps over a cold store: the variant mapped for the simulation
// hashes to a different key, and the sweep fails instead of filing a
// result under the planted key.
func TestMemoVerifiesLazyVariants(t *testing.T) {
	isolateMemo(t)
	const scale = 0.02
	data := recordCatalog(t, "fft", scale)
	in, err := openCapture(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	const planted = "trace:fft@4n:0000000000000000"
	memoPut(in.d.then(AxisNodes, IntValue(4)), traceInfo{key: planted})

	_, _, err = New(scale).Sweep(data, AxisNodes, []SweepValue{IntValue(4)})
	if err == nil || !strings.Contains(err.Error(), "memoized as "+planted) {
		t.Fatalf("sweep over a planted key: %v, want a key mismatch", err)
	}
}

// TestMemoDoesNotRetainDecodes: the memo keeps a capture's key and
// header, never its decode, so the decode is freed with the job that
// made it.
func TestMemoDoesNotRetainDecodes(t *testing.T) {
	isolateMemo(t)
	data := recordCatalog(t, "fft", 0.02)
	freed := make(chan struct{})
	func() {
		v, err := openCapture(data, nil)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := v.trace()
		if err != nil || tr.w == nil {
			t.Fatalf("capture not decoded: %v", err)
		}
		runtime.SetFinalizer(tr.w, func(*workloads.Workload) { close(freed) })
	}()
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-freed:
			if _, ok := memoGet(derivation{input: sha256.Sum256(data)}); !ok {
				t.Error("the capture's key was not memoized")
			}
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Error("the capture's decode outlived its job: something process-wide keeps it")
}

// TestTraceMemoBound fills the memo past its bound: it never holds more
// than traceMemoBound entries, and the newest entry is always kept.
func TestTraceMemoBound(t *testing.T) {
	isolateMemo(t)
	for i := 0; i < traceMemoBound+100; i++ {
		var d derivation
		d.input[0], d.input[1] = byte(i), byte(i>>8)
		memoPut(d, traceInfo{key: fmt.Sprint(i)})
		if _, ok := memoGet(d); !ok {
			t.Fatalf("entry %d dropped on insertion", i)
		}
		traceMemo.Lock()
		n := len(traceMemo.m)
		traceMemo.Unlock()
		if n > traceMemoBound {
			t.Fatalf("memo holds %d entries after %d insertions, bound %d", n, i+1, traceMemoBound)
		}
	}
}

// TestThresholdLineKeepsCaptureKey: a threshold line registers the
// capture itself, which openCapture already keyed. With the capture's
// memo entry evicted in between, registering it must not memoize a fresh
// entry: one without the capture's header would be dereferenced by the
// next openCapture of the same bytes.
func TestThresholdLineKeepsCaptureKey(t *testing.T) {
	isolateMemo(t)
	const scale = 0.02
	data := recordCatalog(t, "fft", scale)
	h := New(scale)
	in, err := openCapture(data, &h.decodes)
	if err != nil {
		t.Fatal(err)
	}
	traceMemo.Lock()
	delete(traceMemo.m, in.d)
	traceMemo.Unlock()
	in.name = "fft@threshold"
	if _, _, err := h.line(in, AxisThreshold, []SweepValue{IntValue(16)}, ""); err != nil {
		t.Fatal(err)
	}
	again, err := openCapture(data, &h.decodes)
	if err != nil {
		t.Fatal(err)
	}
	if again.key != in.key || again.hdr.Name != "fft" {
		t.Errorf("reopened capture keyed %s (%q), want %s", again.key, again.hdr.Name, in.key)
	}
}

// TestConcurrentSweepsShareMemo runs the studies from several harnesses
// over one store at once, cold and then warm, for the race detector:
// memo insertions, lazy derivations and fork trunks all run
// concurrently. Every harness must see the same results, and the warm
// round simulates nothing.
func TestConcurrentSweepsShareMemo(t *testing.T) {
	isolateMemo(t)
	const scale = 0.02
	data := recordCatalog(t, "fft", scale)
	store := NewMemoryStore()
	round := func() ([][]any, int64) {
		const n = 3
		res := make([][]any, n)
		errs := make([]error, n)
		hs := make([]*Harness, n)
		var wg sync.WaitGroup
		for i := range hs {
			hs[i] = New(scale)
			hs[i].Store = store
			hs[i].Workers = 2
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				res[i], errs[i] = memoJobs(hs[i], data)
			}(i)
		}
		wg.Wait()
		var sims int64
		for i, err := range errs {
			if err != nil {
				t.Fatalf("harness %d: %v", i, err)
			}
			if !reflect.DeepEqual(res[i], res[0]) {
				t.Errorf("harness %d results differ from harness 0", i)
			}
			sims += hs[i].Simulations()
		}
		return res, sims
	}
	cold, _ := round()
	warm, sims := round()
	if sims != 0 {
		t.Errorf("warm concurrent round ran %d simulations", sims)
	}
	if !reflect.DeepEqual(warm[0], cold[0]) {
		t.Error("warm concurrent results differ from the cold round")
	}
}
