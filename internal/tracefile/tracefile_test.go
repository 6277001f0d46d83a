package tracefile

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"rnuma/internal/addr"
	"rnuma/internal/trace"
	"rnuma/internal/workloads"
)

// testHeader is a small machine shape used by the hand-rolled cases.
func testHeader() Header {
	homes := make([]addr.NodeID, 40)
	for p := range homes {
		homes[p] = addr.NodeID(p / 10) // runs of 10, 4 nodes
	}
	return Header{
		Name:        "unit",
		Geometry:    addr.Default,
		CPUs:        4,
		Nodes:       4,
		SharedPages: 40,
		Homes:       homes,
	}
}

// randRefs builds a reproducible per-CPU reference matrix.
func randRefs(h Header, perCPU int, seed int64) [][]trace.Ref {
	rng := rand.New(rand.NewSource(seed))
	bpp := h.Geometry.BlocksPerPage()
	out := make([][]trace.Ref, h.CPUs)
	for c := range out {
		refs := make([]trace.Ref, perCPU)
		for i := range refs {
			switch rng.Intn(10) {
			case 0:
				refs[i] = trace.BarrierRef()
			default:
				refs[i] = trace.Ref{
					Page:  addr.PageNum(rng.Intn(h.SharedPages)),
					Off:   uint16(rng.Intn(bpp)),
					Write: rng.Intn(4) == 0,
					Gap:   uint16(rng.Intn(300)),
				}
			}
		}
		out[c] = refs
	}
	return out
}

// encode writes the matrix through the Writer (round-robin, like
// WriteWorkload) and returns the file bytes.
func encode(t *testing.T, h Header, refs [][]trace.Ref) []byte {
	t.Helper()
	var buf bytes.Buffer
	tw, err := NewWriter(&buf, h)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	for i := 0; ; i++ {
		any := false
		for c := range refs {
			if i < len(refs[c]) {
				any = true
				if err := tw.Append(c, refs[c][i]); err != nil {
					t.Fatalf("Append: %v", err)
				}
			}
		}
		if !any {
			break
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes()
}

// decode reads every stream fully and returns the matrix.
func decode(t *testing.T, data []byte) (Header, [][]trace.Ref) {
	t.Helper()
	d, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	out := make([][]trace.Ref, d.Header().CPUs)
	for c, s := range d.Streams() {
		for {
			r, ok := s.Next()
			if !ok {
				break
			}
			out[c] = append(out[c], r)
		}
	}
	if err := d.Err(); err != nil {
		t.Fatalf("Err after drain: %v", err)
	}
	return d.Header(), out
}

func TestRoundTrip(t *testing.T) {
	h := testHeader()
	refs := randRefs(h, 3*chunkRecords/2, 42) // spans multiple chunks per CPU
	data := encode(t, h, refs)

	got, gotRefs := decode(t, data)
	if got.Name != h.Name || got.CPUs != h.CPUs || got.Nodes != h.Nodes ||
		got.SharedPages != h.SharedPages || got.Geometry != h.Geometry {
		t.Fatalf("header round-trip: got %+v want %+v", got, h)
	}
	if !reflect.DeepEqual(got.Homes, h.Homes) {
		t.Fatalf("home map round-trip mismatch")
	}
	for c := range refs {
		if !reflect.DeepEqual(gotRefs[c], refs[c]) {
			t.Fatalf("cpu %d: decoded refs differ from written", c)
		}
	}
	perRef := float64(len(data)) / float64(4*len(refs[0]))
	if perRef > 8 {
		t.Errorf("encoding too loose: %.1f bytes/ref for random refs", perRef)
	}
}

func TestSequentialCompression(t *testing.T) {
	// A dense sequential sweep — the dominant pattern in the catalog —
	// must encode in ~2 bytes/ref (flags + small varint or two).
	h := testHeader()
	refs := make([][]trace.Ref, h.CPUs)
	for c := range refs {
		for p := 0; p < h.SharedPages; p++ {
			for off := 0; off < h.Geometry.BlocksPerPage(); off++ {
				refs[c] = append(refs[c], trace.Ref{Page: addr.PageNum(p), Off: uint16(off), Gap: 10})
			}
		}
	}
	data := encode(t, h, refs)
	perRef := float64(len(data)) / float64(h.CPUs*len(refs[0]))
	if perRef > 4 {
		t.Errorf("sequential sweep encodes at %.2f bytes/ref, want <= 4", perRef)
	}
}

func TestWorkloadRoundTrip(t *testing.T) {
	cfg := workloads.DefaultConfig()
	cfg.Scale = 0.05
	app, _ := workloads.ByName("em3d")

	var buf bytes.Buffer
	refsN, bytesN, err := WriteWorkload(&buf, app.Build(cfg), cfg)
	if err != nil {
		t.Fatalf("WriteWorkload: %v", err)
	}
	if refsN == 0 || bytesN != int64(buf.Len()) {
		t.Fatalf("counts: refs=%d bytes=%d buf=%d", refsN, bytesN, buf.Len())
	}

	d, err := NewReader(&buf)
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	want := app.Build(cfg) // fresh, identical generator output
	for c, s := range d.Streams() {
		ws := want.Streams[c]
		i := 0
		for {
			got, ok := s.Next()
			exp, wok := ws.Next()
			if ok != wok {
				t.Fatalf("cpu %d ref %d: replay ok=%v generator ok=%v", c, i, ok, wok)
			}
			if !ok {
				break
			}
			if got != exp {
				t.Fatalf("cpu %d ref %d: replay %+v generator %+v", c, i, got, exp)
			}
			i++
		}
	}
	if err := d.Err(); err != nil {
		t.Fatalf("Err: %v", err)
	}
	// Replay homes must match the generator's placement.
	hf := d.Header().HomeFunc()
	for p := 0; p < want.SharedPages; p++ {
		if hf(addr.PageNum(p)) != want.Homes(addr.PageNum(p)) {
			t.Fatalf("page %d: replay home %d, generator home %d", p, hf(addr.PageNum(p)), want.Homes(addr.PageNum(p)))
		}
	}
}

func TestTruncationAlwaysErrors(t *testing.T) {
	h := testHeader()
	data := encode(t, h, randRefs(h, 200, 7))
	// Every strict prefix must surface an error (the end marker makes
	// clean-looking truncation impossible), and must never panic.
	for cut := 0; cut < len(data); cut++ {
		d, err := NewReader(bytes.NewReader(data[:cut]))
		if err != nil {
			continue
		}
		if _, err := d.Drain(); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", cut, len(data))
		}
	}
}

func TestCorruptInputs(t *testing.T) {
	h := testHeader()
	valid := encode(t, h, randRefs(h, 50, 3))

	// mutate returns a copy with one byte patched.
	mutate := func(i int, b byte) []byte {
		out := append([]byte(nil), valid...)
		out[i] = b
		return out
	}
	cases := []struct {
		name string
		data []byte
		want string // substring of the expected error ("" = any error)
	}{
		{"empty", nil, "magic"},
		{"bad magic", mutate(0, 'X'), "magic"},
		{"bad version", mutate(4, 99), "version"},
		{"bad geometry", mutate(5, 60), "shift"},
		{"trailing garbage", append(append([]byte(nil), valid...), 0xFF), "trailing"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := NewReader(bytes.NewReader(tc.data))
			if err == nil {
				_, err = d.Drain()
			}
			if err == nil {
				t.Fatal("corrupt input decoded without error")
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestEndMarkerCountMismatch(t *testing.T) {
	h := testHeader()
	data := encode(t, h, randRefs(h, 20, 9))
	// The end marker is the final two varints: cpu sentinel + total.
	// Rebuild the tail with a wrong total.
	tail := make([]byte, 0, 16)
	tail = binary.AppendUvarint(tail, uint64(h.CPUs))
	tail = binary.AppendUvarint(tail, uint64(999999))
	good := make([]byte, 0, 16)
	good = binary.AppendUvarint(good, uint64(h.CPUs))
	good = binary.AppendUvarint(good, uint64(h.CPUs*20))
	if !bytes.HasSuffix(data, good) {
		t.Fatal("test setup: end marker not where expected")
	}
	bad := append(append([]byte(nil), data[:len(data)-len(good)]...), tail...)
	d, err := NewReader(bytes.NewReader(bad))
	if err == nil {
		_, err = d.Drain()
	}
	if err == nil || !strings.Contains(err.Error(), "end marker") {
		t.Fatalf("count mismatch not detected: %v", err)
	}
}

func TestWriterRejectsBadRecords(t *testing.T) {
	h := testHeader()
	var buf bytes.Buffer
	tw, err := NewWriter(&buf, h)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Append(-1, trace.Ref{}); err == nil {
		t.Error("negative cpu accepted")
	}
	tw, _ = NewWriter(&buf, h)
	if err := tw.Append(0, trace.Ref{Page: addr.PageNum(h.SharedPages)}); err == nil {
		t.Error("out-of-segment page accepted")
	}
	tw, _ = NewWriter(&buf, h)
	if err := tw.Append(0, trace.Ref{Off: uint16(h.Geometry.BlocksPerPage())}); err == nil {
		t.Error("out-of-page offset accepted")
	}
	tw, _ = NewWriter(&buf, h)
	if err := tw.Close(); err != nil {
		t.Errorf("empty trace close: %v", err)
	}
	if err := tw.Append(0, trace.Ref{}); err == nil {
		t.Error("append after close accepted")
	}
}

func TestHeaderValidate(t *testing.T) {
	base := testHeader()
	cases := []struct {
		name string
		mod  func(*Header)
	}{
		{"zero cpus", func(h *Header) { h.CPUs = 0 }},
		{"zero nodes", func(h *Header) { h.Nodes = 0 }},
		{"home map short", func(h *Header) { h.Homes = h.Homes[:1] }},
		{"home out of range", func(h *Header) { h.Homes[0] = addr.NodeID(h.Nodes) }},
		{"negative pages", func(h *Header) { h.SharedPages = -1 }},
		{"bad geometry", func(h *Header) { h.Geometry.PageShift = 1 }},
		{"segment beyond block bound", func(h *Header) { h.Geometry = addr.Geometry{BlockShift: 2, PageShift: 24} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := base
			h.Homes = append([]addr.NodeID(nil), base.Homes...)
			tc.mod(&h)
			if err := h.Validate(); err == nil {
				t.Error("invalid header accepted")
			}
		})
	}
	if err := base.Validate(); err != nil {
		t.Errorf("valid header rejected: %v", err)
	}
}

// TestReaderRejectsOversizedSegment: a header whose geometry turns a few
// pages into more blocks than addr.MaxSegmentBlocks is refused while the
// header is decoded, before any record is read, so a small crafted file
// cannot make replay size a multi-gigabyte dense directory index.
func TestReaderRejectsOversizedSegment(t *testing.T) {
	h := testHeader()
	data := encode(t, h, randRefs(h, 50, 3))
	// After the magic and the version byte come the block and page
	// shifts: 4-byte blocks in 16 MB pages make 2^22 blocks a page.
	data[len(magic)+1], data[len(magic)+2] = 2, 24
	if _, err := NewReader(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "segment bound") {
		t.Fatalf("NewReader on %d pages of 2^22 blocks: err %v, want the segment bound", h.SharedPages, err)
	}
}
