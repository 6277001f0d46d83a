package tracefile

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"

	"rnuma/internal/trace"
	"rnuma/internal/workloads"
)

// luSlice is the slice of a catalog capture the committed fixtures
// encode: CPUs 0 and 3, per-CPU records [2000,7000) of `rnuma-trace
// record -app lu -scale 0.05`. Each kept CPU spans two chunks.
var luSlice = CutSpec{CPUs: []int{0, 3}, From: 2000, To: 7000}

// The fixtures are luSlice in the two encodings the Writer no longer
// writes, made by the rnuma-trace that still had them:
//
//	rnuma-trace record -app lu -scale 0.05 -o lu.trace
//	rnuma-trace cut lu.trace -cpus 0,3 -from 2000 -to 7000 -v1 -o lu-slice.v1.trace
//	rnuma-trace cut lu.trace -cpus 0,3 -from 2000 -to 7000 -raw -o lu-slice.raw.trace
//
// -v1 wrote version 1; -raw wrote version 2 with every chunk stored
// uncompressed.
const (
	v1Fixture  = "testdata/lu-slice.v1.trace"
	rawFixture = "testdata/lu-slice.raw.trace"
)

func readFixture(tb testing.TB, path string) []byte {
	tb.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// luSliceV2 records the lu capture and cuts luSlice from it in the
// Writer's encoding.
func luSliceV2(t *testing.T) []byte {
	t.Helper()
	cfg := workloads.DefaultConfig()
	cfg.Scale = 0.05
	app, _ := workloads.ByName("lu")
	var capture, cut bytes.Buffer
	if _, _, err := WriteWorkload(&capture, app.Build(cfg), cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := Cut(&cut, &capture, luSlice); err != nil {
		t.Fatal(err)
	}
	return cut.Bytes()
}

// TestV1RoundTripAndVersionTag: the version-1 and uncompressed fixtures
// decode to the header and records of the Writer's cut of the same
// slice, carry their version tags, diff identical to it, and seek across
// their chunk boundaries like it.
func TestV1RoundTripAndVersionTag(t *testing.T) {
	v2 := luSliceV2(t)
	wantHdr, want := decode(t, v2)
	if len(want[0]) <= chunkRecords || len(want[3]) <= chunkRecords {
		t.Fatalf("test premise broken: kept CPUs hold %d and %d records, want more than a chunk", len(want[0]), len(want[3]))
	}
	for _, tc := range []struct {
		name    string
		data    []byte
		version int
	}{
		{"v1", readFixture(t, v1Fixture), VersionV1},
		{"v2-raw", readFixture(t, rawFixture), VersionV2},
		{"v2-deflate", v2, VersionV2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, err := NewReader(bytes.NewReader(tc.data))
			if err != nil {
				t.Fatal(err)
			}
			if d.Version() != tc.version {
				t.Fatalf("Version() = %d, want %d", d.Version(), tc.version)
			}
			hdr, got := decode(t, tc.data)
			if !reflect.DeepEqual(hdr, wantHdr) {
				t.Fatal("header differs from the Writer's cut")
			}
			for c := range want {
				if !reflect.DeepEqual(got[c], want[c]) {
					t.Fatalf("cpu %d: decoded %d records, the Writer's cut %d, or they differ", c, len(got[c]), len(want[c]))
				}
			}
			if res, err := Diff(bytes.NewReader(tc.data), bytes.NewReader(v2)); err != nil || !res.Identical {
				t.Fatalf("Diff against the Writer's cut: %+v, %v", res, err)
			}
			for _, k := range []int64{4095, 4096, 4097, 4999} {
				d, err := NewReader(bytes.NewReader(tc.data))
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range luSlice.CPUs {
					if err := d.Streams()[c].SeekRecord(k); err != nil {
						t.Fatal(err)
					}
				}
				for _, c := range luSlice.CPUs {
					if got := drainStream(d.Streams()[c]); !reflect.DeepEqual(got, want[c][k:]) {
						t.Fatalf("cpu %d after seek to %d: %d records, want %d", c, k, len(got), len(want[c])-int(k))
					}
				}
				if err := d.Err(); err != nil {
					t.Fatalf("seek to %d: %v", k, err)
				}
			}
		})
	}
}

// catalogV1Bytes is each catalog application's version-1 size at scale
// 0.05 on the 8x4 machine, as the version-1 writer reported it (bytes
// before the end marker).
var catalogV1Bytes = map[string]int{
	"barnes": 1421116, "cholesky": 2095717, "em3d": 196498, "fft": 141242, "fmm": 3124514,
	"lu": 1865120, "moldyn": 3329556, "ocean": 3554838, "radix": 4738522, "raytrace": 1449536,
}

// TestCatalogCompressionRatio is the acceptance bound: every catalog
// application's trace must encode to at most 60% of its version-1 size.
func TestCatalogCompressionRatio(t *testing.T) {
	cfg := workloads.DefaultConfig()
	cfg.Scale = 0.05
	apps := workloads.Names()
	if testing.Short() {
		apps = apps[:3]
	}
	for _, name := range apps {
		app, _ := workloads.ByName(name)
		v1Bytes, ok := catalogV1Bytes[name]
		if !ok {
			t.Fatalf("%s: no recorded version-1 size", name)
		}
		var v2 bytes.Buffer
		refs, _, err := WriteWorkload(&v2, app.Build(cfg), cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ratio := float64(v2.Len()) / float64(v1Bytes)
		t.Logf("%-9s refs=%8d v1=%8d B  v2=%8d B  ratio=%.2f (%.2f B/ref)",
			name, refs, v1Bytes, v2.Len(), ratio, float64(v2.Len())/float64(refs))
		if ratio > 0.60 {
			t.Errorf("%s: v2 trace is %.0f%% of v1 size, want <= 60%%", name, 100*ratio)
		}
	}
}

func TestCutRangeAndCatRecompose(t *testing.T) {
	h := testHeader()
	refs := randRefs(h, 2*chunkRecords+333, 5)
	orig := encode(t, h, refs)

	// Cut [0,N) and [N,end), concatenate, and require the recomposition
	// to decode to the original streams and share its canonical hash.
	const n = chunkRecords + 77
	var head, tail, joined bytes.Buffer
	if _, err := Cut(&head, bytes.NewReader(orig), CutSpec{To: n}); err != nil {
		t.Fatalf("cut head: %v", err)
	}
	if _, err := Cut(&tail, bytes.NewReader(orig), CutSpec{From: n}); err != nil {
		t.Fatalf("cut tail: %v", err)
	}
	total, err := Cat(&joined, []io.Reader{bytes.NewReader(head.Bytes()), bytes.NewReader(tail.Bytes())})
	if err != nil {
		t.Fatalf("cat: %v", err)
	}
	var want int64
	for c := range refs {
		want += int64(len(refs[c]))
	}
	if total != want {
		t.Fatalf("cat wrote %d records, original has %d", total, want)
	}
	_, gotRefs := decode(t, joined.Bytes())
	for c := range refs {
		if !reflect.DeepEqual(gotRefs[c], refs[c]) {
			t.Fatalf("cpu %d: recomposed refs differ from original", c)
		}
	}
	origSum, _, err := CanonicalHash(bytes.NewReader(orig))
	if err != nil {
		t.Fatal(err)
	}
	joinSum, _, err := CanonicalHash(bytes.NewReader(joined.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if origSum != joinSum {
		t.Error("cut+cat recomposition changed the canonical hash")
	}
}

func TestCutCPUSubset(t *testing.T) {
	h := testHeader()
	refs := randRefs(h, 500, 13)
	orig := encode(t, h, refs)

	var out bytes.Buffer
	if _, err := Cut(&out, bytes.NewReader(orig), CutSpec{CPUs: []int{3, 1}}); err != nil {
		t.Fatalf("cut: %v", err)
	}
	got, gotRefs := decode(t, out.Bytes())
	// The machine shape is preserved — dropped CPUs become empty streams
	// — so the cut replays on the recorded machine with every reference
	// still attributed to its original CPU and node.
	if got.CPUs != h.CPUs || got.Nodes != h.Nodes || got.SharedPages != h.SharedPages {
		t.Fatalf("cut changed the machine shape: %d cpus / %d nodes, want %d / %d",
			got.CPUs, got.Nodes, h.CPUs, h.Nodes)
	}
	for cpu := 0; cpu < h.CPUs; cpu++ {
		if cpu == 1 || cpu == 3 {
			if !reflect.DeepEqual(gotRefs[cpu], refs[cpu]) {
				t.Fatalf("kept cpu %d: records differ from source", cpu)
			}
		} else if len(gotRefs[cpu]) != 0 {
			t.Fatalf("dropped cpu %d still has %d records", cpu, len(gotRefs[cpu]))
		}
	}
}

func TestCutValidation(t *testing.T) {
	h := testHeader()
	orig := encode(t, h, randRefs(h, 20, 1))
	cases := []struct {
		name string
		sel  CutSpec
	}{
		{"negative from", CutSpec{From: -1}},
		{"empty range", CutSpec{From: 5, To: 5}},
		{"cpu out of range", CutSpec{CPUs: []int{h.CPUs}}},
		{"duplicate cpu", CutSpec{CPUs: []int{1, 1}}},
		{"no cpus", CutSpec{CPUs: []int{}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if _, err := Cut(&out, bytes.NewReader(orig), tc.sel); err == nil {
				t.Error("invalid cut spec accepted")
			}
		})
	}
}

func TestCatRejectsShapeMismatch(t *testing.T) {
	h := testHeader()
	a := encode(t, h, randRefs(h, 20, 1))

	h2 := testHeader()
	h2.Homes[0] = 1 // same counts, different placement
	b := encode(t, h2, randRefs(h2, 20, 1))

	var out bytes.Buffer
	_, err := Cat(&out, []io.Reader{bytes.NewReader(a), bytes.NewReader(b)})
	if err == nil || !strings.Contains(err.Error(), "homed") {
		t.Fatalf("home-map mismatch not rejected: %v", err)
	}
}

// TestCanonicalHashAcrossEncodings pins the memoization contract: the
// hash follows the reference streams, not the bytes on disk. The
// version-1 and uncompressed fixtures and the Writer's cut of the same
// slice share one hash.
func TestCanonicalHashAcrossEncodings(t *testing.T) {
	v2 := luSliceV2(t)
	want, h, err := CanonicalHash(bytes.NewReader(v2))
	if err != nil {
		t.Fatal(err)
	}
	if h.CPUs != 32 || h.Name != "lu" {
		t.Errorf("CanonicalHash returned a mangled header: %d cpus, name %q", h.CPUs, h.Name)
	}
	for name, data := range map[string][]byte{"v1": readFixture(t, v1Fixture), "v2-raw": readFixture(t, rawFixture)} {
		if bytes.Equal(data, v2) {
			t.Fatalf("test premise broken: %s is the Writer's bytes", name)
		}
		sum, _, err := CanonicalHash(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sum != want {
			t.Errorf("%s: canonical hash %x, the Writer's cut %x", name, sum[:8], want[:8])
		}
	}

	// Any semantic change must move the hash.
	th := testHeader()
	refs := randRefs(th, 800, 17)
	sum, _, err := CanonicalHash(bytes.NewReader(encode(t, th, refs)))
	if err != nil {
		t.Fatal(err)
	}
	refs[2][400].Write = !refs[2][400].Write
	sumM, _, err := CanonicalHash(bytes.NewReader(encode(t, th, refs)))
	if err != nil {
		t.Fatal(err)
	}
	if sumM == sum {
		t.Error("flipping one record's write bit left the canonical hash unchanged")
	}
}

// canonicalReference hashes the canonical byte sequence of a decoded
// trace written out longhand, one Write per header field, home and
// record, in round-robin order: an independent statement of the
// definition both canonical hashes share.
func canonicalReference(h Header, refs [][]trace.Ref) [sha256.Size]byte {
	hash := sha256.New()
	hash.Write([]byte("rntr-canonical-1\x00"))
	hash.Write([]byte{byte(h.Geometry.BlockShift), byte(h.Geometry.PageShift)})
	for _, v := range []int{h.CPUs, h.Nodes, h.SharedPages, len(h.Name)} {
		hash.Write(binary.AppendUvarint(nil, uint64(v)))
	}
	hash.Write([]byte(h.Name))
	for _, n := range h.Homes {
		hash.Write(binary.AppendUvarint(nil, uint64(n)))
	}
	for i := 0; ; i++ {
		any := false
		for cpu, s := range refs {
			if i >= len(s) {
				continue
			}
			any = true
			r := s[i]
			rec := binary.AppendUvarint(nil, uint64(cpu))
			var flags byte
			if r.Write {
				flags |= flagWrite
			}
			if r.Barrier {
				flags |= flagBarrier
			}
			rec = append(rec, flags)
			rec = binary.AppendUvarint(rec, uint64(r.Page))
			rec = binary.AppendUvarint(rec, uint64(r.Off))
			rec = binary.AppendUvarint(rec, uint64(r.Gap))
			hash.Write(rec)
		}
		if !any {
			break
		}
	}
	var sum [sha256.Size]byte
	copy(sum[:], hash.Sum(nil))
	return sum
}

// sliceStreams wraps a reference matrix as fresh streams.
func sliceStreams(refs [][]trace.Ref) []trace.Stream {
	out := make([]trace.Stream, len(refs))
	for i, r := range refs {
		out[i] = trace.FromSlice(r)
	}
	return out
}

// TestCanonicalHashStreams pins the canonical hash over decoded streams
// to CanonicalHash: equal on the Writer's encoding of the same streams,
// on a cut+cat recomposition, and on streams of unequal length (which fixes
// the round-robin tail order), and both equal to the definition written
// out longhand. Decode's streams hash the same as the matrix they came
// from.
func TestCanonicalHashStreams(t *testing.T) {
	h := testHeader()
	even := randRefs(h, 3*chunkRecords/2, 41)
	uneven := randRefs(h, 3*chunkRecords/2, 43)
	uneven[0] = uneven[0][:10]
	uneven[1] = nil
	uneven[3] = uneven[3][:chunkRecords+7]

	for _, tc := range []struct {
		name string
		refs [][]trace.Ref
	}{{"even", even}, {"uneven", uneven}} {
		want := canonicalReference(h, tc.refs)
		if got, err := CanonicalHashStreams(h, sliceStreams(tc.refs)); err != nil || got != want {
			t.Errorf("%s: CanonicalHashStreams %x (%v), longhand definition %x", tc.name, got[:8], err, want[:8])
		}
		v2 := encode(t, h, tc.refs)
		var head, tail, joined bytes.Buffer
		if _, err := Cut(&head, bytes.NewReader(v2), CutSpec{To: 100}); err != nil {
			t.Fatal(err)
		}
		if _, err := Cut(&tail, bytes.NewReader(v2), CutSpec{From: 100}); err != nil {
			t.Fatal(err)
		}
		if _, err := Cat(&joined, []io.Reader{&head, &tail}); err != nil {
			t.Fatal(err)
		}
		for _, enc := range []struct {
			name string
			data []byte
		}{
			{"v2", v2},
			{"cut+cat", joined.Bytes()},
		} {
			sum, _, err := CanonicalHash(bytes.NewReader(enc.data))
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, enc.name, err)
			}
			if sum != want {
				t.Errorf("%s/%s: CanonicalHash %x, CanonicalHashStreams %x", tc.name, enc.name, sum[:8], want[:8])
			}
			d, err := NewReader(bytes.NewReader(enc.data))
			if err != nil {
				t.Fatal(err)
			}
			w, n, err := d.Decode(1 << 30)
			if err != nil || w == nil {
				t.Fatalf("%s/%s: Decode: %v (workload %v)", tc.name, enc.name, err, w)
			}
			if total := records(tc.refs); n != total {
				t.Errorf("%s/%s: Decode counted %d records, want %d", tc.name, enc.name, n, total)
			}
			if got, err := CanonicalHashStreams(d.Header(), w.Fresh().Streams); err != nil || got != want {
				t.Errorf("%s/%s: decoded streams hash %x (%v), want %x", tc.name, enc.name, got[:8], err, want[:8])
			}
		}
	}
}

// records counts a matrix's references.
func records(refs [][]trace.Ref) int64 {
	var n int64
	for _, r := range refs {
		n += int64(len(r))
	}
	return n
}

// TestDecodeLimit: Decode materializes a trace of exactly limit records,
// gives up on one more, and reports a corrupt trace's error as the
// streams would.
func TestDecodeLimit(t *testing.T) {
	h := testHeader()
	refs := randRefs(h, 2*chunkRecords+3, 47)
	data := encode(t, h, refs)
	n := records(refs)
	for _, tc := range []struct {
		limit  int64
		decode bool
	}{{n, true}, {n - 1, false}, {0, false}} {
		d, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		w, got, err := d.Decode(tc.limit)
		if err != nil {
			t.Fatalf("limit %d: %v", tc.limit, err)
		}
		if (w != nil) != tc.decode {
			t.Fatalf("limit %d of %d records: decoded %v, want %v", tc.limit, n, w != nil, tc.decode)
		}
		if w == nil {
			continue
		}
		if got != n || w.Name != h.Name || w.SharedPages != h.SharedPages {
			t.Errorf("limit %d: %d records, workload %q/%d pages", tc.limit, got, w.Name, w.SharedPages)
		}
		for round := 0; round < 2; round++ { // Fresh cursors replay from the start
			for cpu, s := range w.Fresh().Streams {
				var out []trace.Ref
				for {
					r, ok := s.Next()
					if !ok {
						break
					}
					out = append(out, r)
				}
				if !reflect.DeepEqual(out, refs[cpu]) {
					t.Fatalf("limit %d round %d: cpu %d replayed %d refs differing from the %d encoded", tc.limit, round, cpu, len(out), len(refs[cpu]))
				}
			}
		}
	}

	cut := data[:len(data)*2/3]
	_, _, want := CanonicalHash(bytes.NewReader(cut))
	d, err := NewReader(bytes.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Decode(1 << 30); err == nil || want == nil || err.Error() != want.Error() {
		t.Errorf("Decode of a truncated trace: %v, streams report %v", err, want)
	}
}
