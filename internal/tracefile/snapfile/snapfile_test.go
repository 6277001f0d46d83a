package snapfile

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"rnuma/internal/addr"
	"rnuma/internal/config"
	"rnuma/internal/machine"
	"rnuma/internal/trace"
)

// testSnapshot builds a real mid-run snapshot: a small R-NUMA machine
// paused partway through adversarial random traffic, so every component
// state (caches, directory, counters, page tables) is populated.
func testSnapshot(t *testing.T) *machine.Snapshot {
	t.Helper()
	sys := config.Base(config.RNUMA)
	sys.Nodes, sys.CPUsPerNode = 2, 2
	sys.BlockCacheBytes = 1 << 10
	sys.PageCacheBytes = 4 * int(sys.Geometry.PageBytes())
	sys.Threshold = 8
	m, err := machine.New(sys, machine.WithHomes(func(p addr.PageNum) addr.NodeID {
		return addr.NodeID(p % 2)
	}))
	if err != nil {
		t.Fatal(err)
	}
	streams := make([]trace.Stream, 4)
	for c := range streams {
		rng := rand.New(rand.NewSource(int64(c) + 1))
		refs := make([]trace.Ref, 800)
		for i := range refs {
			refs[i] = trace.Ref{
				Page:  addr.PageNum(rng.Intn(10)),
				Off:   uint16(rng.Intn(8)),
				Write: rng.Intn(3) == 0,
				Gap:   uint16(rng.Intn(30)),
			}
		}
		streams[c] = trace.FromSlice(refs)
	}
	if err := m.Start(streams); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunUntilRefs(1500); err != nil {
		t.Fatal(err)
	}
	s, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// encodeSnap serializes a snapshot to bytes.
func encodeSnap(t *testing.T, s *machine.Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRoundTrip: write → read → write reproduces the exact bytes, and
// the decoded snapshot restores into a compatible machine.
func TestRoundTrip(t *testing.T) {
	snap := testSnapshot(t)
	enc := encodeSnap(t, snap)

	got, err := Read(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	// Gob canonicalizes empty-vs-nil containers, so compare re-encodings
	// rather than the structures.
	if !bytes.Equal(encodeSnap(t, got), enc) {
		t.Error("re-encoded snapshot differs from the original encoding")
	}
	if got.Sys != snap.Sys || got.CounterHigh != snap.CounterHigh || !reflect.DeepEqual(got.CPUs, snap.CPUs) {
		t.Error("decoded snapshot differs from the captured one")
	}

	// A machine of the same configuration accepts the decoded snapshot.
	m, err := machine.New(snap.Sys, machine.WithHomes(func(p addr.PageNum) addr.NodeID {
		return addr.NodeID(p % 2)
	}))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Restore(got); err != nil {
		t.Errorf("restoring a round-tripped snapshot: %v", err)
	}

	// The plain-io.Reader path (no ByteReader) decodes identically.
	plain, err := Read(struct{ io.Reader }{bytes.NewReader(enc)})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeSnap(t, plain), enc) {
		t.Error("plain-reader decode differs")
	}
}

// TestFileRoundTrip covers the path-based helpers.
func TestFileRoundTrip(t *testing.T) {
	snap := testSnapshot(t)
	path := filepath.Join(t.TempDir(), "pause.rnss")
	if err := WriteFile(path, snap); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeSnap(t, got), encodeSnap(t, snap)) {
		t.Error("file round trip changed the snapshot")
	}
	if _, err := ReadFile(filepath.Join(t.TempDir(), "absent.rnss")); err == nil {
		t.Error("missing file accepted")
	}
	if err := WriteFile(filepath.Join(t.TempDir(), "no", "such", "dir.rnss"), snap); err == nil {
		t.Error("unwritable path accepted")
	}
}

// TestRejectsCorruption: every single-bit flip in the envelope or
// payload, every truncation, and trailing garbage are all rejected.
func TestRejectsCorruption(t *testing.T) {
	enc := encodeSnap(t, testSnapshot(t))

	// Truncations at every boundary region (and a sweep of early cuts).
	cuts := []int{0, 1, 4, 5, len(enc) / 2, len(enc) - 4, len(enc) - 1}
	for _, n := range cuts {
		if _, err := Read(bytes.NewReader(enc[:n])); err == nil {
			t.Errorf("truncation to %d bytes accepted", n)
		}
	}

	// Trailing bytes.
	if _, err := Read(bytes.NewReader(append(append([]byte(nil), enc...), 0))); err == nil ||
		!strings.Contains(err.Error(), "trailing") {
		t.Errorf("trailing byte: err = %v", err)
	}

	// Bit flips: magic, version, length, payload, and checksum regions.
	for _, pos := range []int{0, 3, 4, 5, 16, len(enc) / 2, len(enc) - 2} {
		bad := append([]byte(nil), enc...)
		bad[pos] ^= 0x40
		if _, err := Read(bytes.NewReader(bad)); err == nil {
			t.Errorf("bit flip at byte %d accepted", pos)
		}
	}

	// A huge declared length is bounded before allocation.
	huge := append([]byte("RNSS\x03"), 0xff, 0xff, 0xff, 0xff, 0x7f)
	if _, err := Read(bytes.NewReader(huge)); err == nil || !strings.Contains(err.Error(), "bound") {
		t.Errorf("oversized payload length: err = %v", err)
	}

	// Version-1 (capacity-sized page-cache state) and version-2
	// (stats.Run's counters declared field by field) checkpoints are
	// refused.
	for _, v := range []byte{1, 2} {
		old := append([]byte(nil), enc...)
		old[4] = v
		if _, err := Read(bytes.NewReader(old)); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version %d", v)) {
			t.Errorf("version-%d snapshot: err = %v", v, err)
		}
	}

	if err := Write(io.Discard, nil); err == nil {
		t.Error("nil snapshot accepted")
	}
}
