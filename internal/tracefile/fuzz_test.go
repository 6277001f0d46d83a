package tracefile

import (
	"bytes"
	"testing"

	"rnuma/internal/addr"
	"rnuma/internal/trace"
)

// FuzzReader asserts the decoder's contract on untrusted input: malformed
// headers, corrupt chunks, and truncated files must surface as errors —
// never as panics, hangs, or unbounded allocations. CI runs this for a
// short smoke window (`go test -fuzz=FuzzReader -fuzztime=10s`); the
// unit-test mode replays the seed corpus on every `go test`.
func FuzzReader(f *testing.F) {
	// Seed corpus: a small valid trace from the Writer (kept small so
	// each fuzz exec is cheap) and the version-1 and uncompressed
	// fixtures, each with its truncations and single-byte corruptions —
	// enough structure that the fuzzer starts from deep inside every
	// encoding the Reader reads.
	h := Header{
		Name:        "fuzz",
		Geometry:    addr.Default,
		CPUs:        2,
		Nodes:       2,
		SharedPages: 8,
		Homes:       []addr.NodeID{0, 0, 0, 0, 1, 1, 1, 1},
	}
	var buf bytes.Buffer
	tw, err := NewWriter(&buf, h)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		r := trace.Ref{Page: addr.PageNum(i % 8), Off: uint16(i % 128), Write: i%3 == 0, Gap: uint16(i * 7 % 300)}
		if i%17 == 0 {
			r = trace.BarrierRef()
		}
		if err := tw.Append(i%2, r); err != nil {
			f.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		f.Fatal(err)
	}
	for _, valid := range [][]byte{buf.Bytes(), readFixture(f, rawFixture), readFixture(f, v1Fixture)} {
		f.Add(valid)
		for _, cut := range []int{0, 3, 4, 7, len(valid) / 2, len(valid) - 1} {
			f.Add(append([]byte(nil), valid[:cut]...))
		}
		for _, i := range []int{0, 4, 5, 8, len(valid) / 2} {
			mut := append([]byte(nil), valid...)
			mut[i] ^= 0xA5
			f.Add(mut)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Drain everything; decode work and queue growth are bounded by
		// the input length times DEFLATE's maximum expansion (~1032:1 —
		// each decoded record consumes >= 1 byte of decompressed payload,
		// and every decompressed byte comes from a stored chunk byte).
		counts, err := d.Drain()
		if err != nil {
			return
		}
		var total int64
		for _, c := range counts {
			total += c
		}
		if total > 1032*int64(len(data)) {
			t.Fatalf("decoded %d records from %d bytes: exceeds the deflate expansion bound", total, len(data))
		}
	})
}
