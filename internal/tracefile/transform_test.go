package tracefile

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"

	"rnuma/internal/addr"
	"rnuma/internal/trace"
)

// retargetBytes runs Retarget over an in-memory encoding.
func retargetBytes(t *testing.T, data []byte, spec RetargetSpec) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := Retarget(&buf, bytes.NewReader(data), spec); err != nil {
		t.Fatalf("Retarget: %v", err)
	}
	return buf.Bytes()
}

func hashOf(t *testing.T, data []byte) [32]byte {
	t.Helper()
	sum, _, err := CanonicalHash(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("CanonicalHash: %v", err)
	}
	return sum
}

// TestRetargetIdentityIsExact: a zero-valued spec (identity policy, shape
// kept) must reproduce the trace's canonical content bit for bit —
// header, homes, and every record.
func TestRetargetIdentityIsExact(t *testing.T) {
	h := testHeader()
	refs := randRefs(h, 700, 3)
	data := encode(t, h, refs)
	out := retargetBytes(t, data, RetargetSpec{})
	gotH, gotRefs := decode(t, out)
	if !reflect.DeepEqual(gotH, h) {
		t.Fatalf("header changed: %+v vs %+v", gotH, h)
	}
	for c := range refs {
		if !reflect.DeepEqual(gotRefs[c], refs[c]) {
			t.Fatalf("cpu %d: records changed", c)
		}
	}
	if hashOf(t, data) != hashOf(t, out) {
		t.Fatal("identity retarget changed the canonical hash")
	}
}

// TestRetargetNodeExpansion doubles the node count: records are
// untouched, and the policies disagree only on the home map.
func TestRetargetNodeExpansion(t *testing.T) {
	h := testHeader() // 4 nodes, homes in runs of 10
	refs := randRefs(h, 300, 7)
	data := encode(t, h, refs)

	t.Run("roundrobin", func(t *testing.T) {
		// CPUs grow with the nodes (8 nodes need >= 8 CPUs to divide
		// evenly); the original 4 streams keep their records, the new
		// ones are empty.
		out := retargetBytes(t, data, RetargetSpec{Nodes: 8, CPUs: 8, Policy: RoundRobin()})
		gotH, gotRefs := decode(t, out)
		if gotH.Nodes != 8 || gotH.CPUs != 8 || gotH.SharedPages != h.SharedPages {
			t.Fatalf("shape: %+v", gotH)
		}
		for q, n := range gotH.Homes {
			if n != addr.NodeID(q%8) {
				t.Fatalf("page %d homed at %d, want %d", q, n, q%8)
			}
		}
		for c := range refs {
			if !reflect.DeepEqual(gotRefs[c], refs[c]) {
				t.Fatalf("cpu %d: records changed", c)
			}
		}
	})
	t.Run("identity-preserves-placement", func(t *testing.T) {
		out := retargetBytes(t, data, RetargetSpec{Nodes: 8, CPUs: 8, Policy: Identity()})
		gotH, _ := decode(t, out)
		if !reflect.DeepEqual(gotH.Homes, h.Homes) {
			t.Fatal("identity policy should keep the source placement when nodes grow")
		}
	})
	t.Run("identity-folds-shrinking-nodes", func(t *testing.T) {
		out := retargetBytes(t, data, RetargetSpec{Nodes: 2, Policy: Identity()})
		gotH, _ := decode(t, out)
		for q, n := range gotH.Homes {
			if want := h.Homes[q] % 2; n != want {
				t.Fatalf("page %d homed at %d, want %d", q, n, want)
			}
		}
	})
}

// TestRetargetCPUFold shrinks the CPU count: source streams fold onto
// target CPU (source mod target) in the canonical round-robin order, and
// growing the count leaves the new streams empty.
func TestRetargetCPUFold(t *testing.T) {
	h := testHeader() // 4 CPUs
	refs := randRefs(h, 50, 11)
	data := encode(t, h, refs)

	out := retargetBytes(t, data, RetargetSpec{CPUs: 2, Nodes: 2})
	gotH, gotRefs := decode(t, out)
	if gotH.CPUs != 2 || gotH.Nodes != 2 {
		t.Fatalf("shape = %d cpus/%d nodes, want 2/2", gotH.CPUs, gotH.Nodes)
	}
	// Expected fold: replay the canonical round-robin drain of the
	// source, appending each record to stream (cpu % 2).
	want := make([][]trace.Ref, 2)
	for i := 0; i < 50; i++ {
		for c := 0; c < 4; c++ {
			want[c%2] = append(want[c%2], refs[c][i])
		}
	}
	for c := range want {
		if !reflect.DeepEqual(gotRefs[c], want[c]) {
			t.Fatalf("cpu %d: folded stream differs", c)
		}
	}

	out = retargetBytes(t, data, RetargetSpec{CPUs: 8})
	gotH, gotRefs = decode(t, out)
	if gotH.CPUs != 8 {
		t.Fatalf("CPUs = %d, want 8", gotH.CPUs)
	}
	for c := 0; c < 4; c++ {
		if !reflect.DeepEqual(gotRefs[c], refs[c]) {
			t.Fatalf("cpu %d: records changed on expansion", c)
		}
	}
	for c := 4; c < 8; c++ {
		if len(gotRefs[c]) != 0 {
			t.Fatalf("cpu %d: expected empty stream, got %d records", c, len(gotRefs[c]))
		}
	}
}

// TestRetargetFewerPagesThanTouched: non-folding policies must error —
// never wrap — when the trace references pages beyond the target
// segment; the modulo policy folds them by design.
func TestRetargetFewerPagesThanTouched(t *testing.T) {
	h := testHeader() // 40 pages, randRefs touches most of them
	refs := randRefs(h, 200, 5)
	data := encode(t, h, refs)

	for _, policy := range []RemapPolicy{Identity(), RoundRobin()} {
		var buf bytes.Buffer
		_, err := Retarget(&buf, bytes.NewReader(data), RetargetSpec{Pages: 8, Policy: policy})
		if err == nil {
			t.Fatalf("policy %s: retarget to 8 pages silently wrapped", policy.Name())
		}
		if !strings.Contains(err.Error(), "outside the 8-page target segment") {
			t.Fatalf("policy %s: unexpected error %v", policy.Name(), err)
		}
	}

	out := retargetBytes(t, data, RetargetSpec{Pages: 8, Policy: ModuloFold()})
	gotH, gotRefs := decode(t, out)
	if gotH.SharedPages != 8 {
		t.Fatalf("pages = %d, want 8", gotH.SharedPages)
	}
	for c := range refs {
		for i, r := range refs[c] {
			got := gotRefs[c][i]
			if r.Barrier {
				continue
			}
			if got.Page != r.Page%8 {
				t.Fatalf("cpu %d rec %d: page %d, want %d", c, i, got.Page, r.Page%8)
			}
		}
	}
}

// TestRetargetMapFile drives the explicit-map policy: page permutation,
// explicit homes, and the error paths for unmapped and out-of-range
// entries.
func TestRetargetMapFile(t *testing.T) {
	h := testHeader()
	h.SharedPages, h.Homes = 4, []addr.NodeID{0, 1, 2, 3}
	refs := [][]trace.Ref{
		{{Page: 0}, {Page: 1, Write: true}},
		{{Page: 2}, {Page: 3}},
		{{Page: 0}},
		{{Page: 1}},
	}
	data := encode(t, h, refs)

	policy, err := MapFilePolicy([]byte(`{"pages": [3, 2, 1, 0], "homes": [1, 1, 0, 0]}`))
	if err != nil {
		t.Fatal(err)
	}
	out := retargetBytes(t, data, RetargetSpec{Nodes: 2, Policy: policy})
	gotH, gotRefs := decode(t, out)
	if want := []addr.NodeID{1, 1, 0, 0}; !reflect.DeepEqual(gotH.Homes, want) {
		t.Fatalf("homes = %v, want %v", gotH.Homes, want)
	}
	for c := range refs {
		for i, r := range refs[c] {
			if got := gotRefs[c][i].Page; got != 3-r.Page {
				t.Fatalf("cpu %d rec %d: page %d, want %d", c, i, got, 3-r.Page)
			}
		}
	}

	for name, tc := range map[string]struct {
		doc  string
		spec RetargetSpec
	}{
		"unmapped page":          {`{"pages": [0, 1]}`, RetargetSpec{}},
		"dst out of range":       {`{"pages": [9, 0, 1, 2]}`, RetargetSpec{}},
		"homes wrong length":     {`{"homes": [0, 0]}`, RetargetSpec{}},
		"home node out of range": {`{"homes": [0, 5, 0, 0]}`, RetargetSpec{Nodes: 2}},
	} {
		p, err := MapFilePolicy([]byte(tc.doc))
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		tc.spec.Policy = p
		var buf bytes.Buffer
		if _, err := Retarget(&buf, bytes.NewReader(data), tc.spec); err == nil {
			t.Errorf("%s: retarget succeeded", name)
		}
	}
	if _, err := MapFilePolicy([]byte(`{}`)); err == nil {
		t.Error("empty map file accepted")
	}
	if _, err := MapFilePolicy([]byte(`{"pages": `)); err == nil {
		t.Error("malformed JSON accepted")
	}
	// A typoed key must fail loudly, not silently fall back to defaults.
	if _, err := MapFilePolicy([]byte(`{"pages": [0, 1, 2, 3], "hmoes": [0, 0, 0, 0]}`)); err == nil {
		t.Error("unknown map file field accepted")
	}
	if _, err := MapFilePolicy([]byte(`{"pages": [0]} {"homes": [0]}`)); err == nil {
		t.Error("trailing document accepted")
	}
}

// TestDilate covers scaling, rounding, clamping, and the rejected
// degenerate factors.
func TestDilate(t *testing.T) {
	h := testHeader()
	refs := randRefs(h, 400, 9)
	data := encode(t, h, refs)

	dilate := func(t *testing.T, spec DilateSpec) [][]trace.Ref {
		t.Helper()
		var buf bytes.Buffer
		if _, err := Dilate(&buf, bytes.NewReader(data), spec); err != nil {
			t.Fatalf("Dilate: %v", err)
		}
		_, out := decode(t, buf.Bytes())
		return out
	}

	t.Run("identity factor preserves the hash", func(t *testing.T) {
		var buf bytes.Buffer
		if _, err := Dilate(&buf, bytes.NewReader(data), DilateSpec{Num: 1, Den: 1}); err != nil {
			t.Fatal(err)
		}
		if hashOf(t, data) != hashOf(t, buf.Bytes()) {
			t.Fatal("1/1 dilation changed the canonical hash")
		}
	})
	t.Run("scale and round", func(t *testing.T) {
		got := dilate(t, DilateSpec{Num: 3, Den: 2})
		for c := range refs {
			for i, r := range refs[c] {
				want := uint16((uint64(r.Gap)*3 + 1) / 2)
				if got[c][i].Gap != want {
					t.Fatalf("cpu %d rec %d: gap %d, want %d", c, i, got[c][i].Gap, want)
				}
				// Everything but the gap is untouched.
				r.Gap, got[c][i].Gap = 0, 0
				if got[c][i] != r {
					t.Fatalf("cpu %d rec %d: non-gap fields changed", c, i)
				}
			}
		}
	})
	t.Run("clamp", func(t *testing.T) {
		got := dilate(t, DilateSpec{Num: 1000, Den: 1, Clamp: 123})
		for c := range got {
			for i, r := range got[c] {
				if refs[c][i].Gap != 0 && r.Gap != 123 {
					t.Fatalf("cpu %d rec %d: gap %d escaped the clamp", c, i, r.Gap)
				}
			}
		}
	})
	t.Run("format ceiling", func(t *testing.T) {
		got := dilate(t, DilateSpec{Num: 1 << 20, Den: 1})
		for c := range got {
			for i, r := range got[c] {
				if refs[c][i].Gap != 0 && r.Gap != 0xFFFF {
					t.Fatalf("cpu %d rec %d: gap %d, want 65535", c, i, r.Gap)
				}
			}
		}
	})
	t.Run("degenerate factors rejected", func(t *testing.T) {
		for _, spec := range []DilateSpec{
			{Num: 0, Den: 1},
			{Num: -2, Den: 1},
			{Num: 1, Den: 0},
			{Num: 1, Den: -3},
			{Num: 1, Den: 1, Clamp: -1},
			{Num: 1, Den: 1, Clamp: 1 << 16},
			{Num: 1 << 40, Den: 1}, // would overflow gap*num
			{Num: 1, Den: 1 << 40},
		} {
			var buf bytes.Buffer
			if _, err := Dilate(&buf, bytes.NewReader(data), spec); err == nil {
				t.Errorf("spec %+v accepted", spec)
			}
		}
	})
}

func TestParseRatio(t *testing.T) {
	for s, want := range map[string][2]int64{
		"2": {2, 1}, "3/2": {3, 2}, "1/4": {1, 4}, "0": {0, 1},
	} {
		num, den, err := ParseRatio(s)
		if err != nil || num != want[0] || den != want[1] {
			t.Errorf("ParseRatio(%q) = %d/%d, %v; want %d/%d", s, num, den, err, want[0], want[1])
		}
	}
	// Malformed factors must be rejected outright, never parsed as a
	// truncated prefix (a "1.5" silently meaning 1/1 would turn a
	// requested dilation into a no-op).
	for _, s := range []string{"fast", "1.5", "1,5", "2abc", "2/", "/2", "3/2/1", ""} {
		if _, _, err := ParseRatio(s); err == nil {
			t.Errorf("ParseRatio(%q) accepted", s)
		}
	}
}

// TestDiffIdentical: a trace must diff clean against itself and against
// a cut+cat recomposition of itself. (TestV1RoundTripAndVersionTag diffs
// different bytes of the same content: the fixtures against their cut.)
func TestDiffIdentical(t *testing.T) {
	h := testHeader()
	refs := randRefs(h, 500, 13)
	data := encode(t, h, refs)

	var lo, hi, cat bytes.Buffer
	if _, err := Cut(&lo, bytes.NewReader(data), CutSpec{To: 250}); err != nil {
		t.Fatal(err)
	}
	if _, err := Cut(&hi, bytes.NewReader(data), CutSpec{From: 250}); err != nil {
		t.Fatal(err)
	}
	if _, err := Cat(&cat, []io.Reader{&lo, &hi}); err != nil {
		t.Fatal(err)
	}

	for name, other := range map[string][]byte{"self": data, "cut+cat": cat.Bytes()} {
		res, err := Diff(bytes.NewReader(data), bytes.NewReader(other))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Identical || res.First != nil || res.ShapeMismatch != nil {
			t.Fatalf("%s: not identical: %+v", name, res)
		}
		if res.ARecords != res.BRecords || res.ARecords != int64(4*500) {
			t.Fatalf("%s: record counts %d vs %d", name, res.ARecords, res.BRecords)
		}
	}
}

// TestDiffPinpointsMutation: flipping exactly one record must report that
// exact CPU and per-CPU record index, and the summary must count one
// differing record on that CPU only.
func TestDiffPinpointsMutation(t *testing.T) {
	h := testHeader()
	refs := randRefs(h, 500, 17)
	data := encode(t, h, refs)

	const mutCPU, mutIdx = 2, 313
	mutated := make([][]trace.Ref, len(refs))
	for c := range refs {
		mutated[c] = append([]trace.Ref(nil), refs[c]...)
	}
	mutated[mutCPU][mutIdx].Write = !mutated[mutCPU][mutIdx].Write
	mdata := encode(t, h, mutated)

	res, err := Diff(bytes.NewReader(data), bytes.NewReader(mdata))
	if err != nil {
		t.Fatal(err)
	}
	if res.Identical {
		t.Fatal("mutation not detected")
	}
	if res.First == nil || res.First.CPU != mutCPU || res.First.Index != mutIdx {
		t.Fatalf("first divergence = %+v, want cpu %d record %d", res.First, mutCPU, mutIdx)
	}
	if res.First.AEnded || res.First.BEnded {
		t.Fatalf("divergence reported as stream end: %+v", res.First)
	}
	for _, s := range res.PerCPU {
		want := CPUDiff{CPU: s.CPU, ARecords: 500, BRecords: 500, FirstIndex: -1}
		if s.CPU == mutCPU {
			want.Differing, want.FirstIndex = 1, mutIdx
		}
		if s != want {
			t.Fatalf("cpu %d summary = %+v, want %+v", s.CPU, s, want)
		}
	}
}

// TestDiffShapeMismatch: traces of different machine shapes must report
// the shape mismatch, never a record index.
func TestDiffShapeMismatch(t *testing.T) {
	h := testHeader()
	refs := randRefs(h, 50, 19)
	data := encode(t, h, refs)
	other := retargetBytes(t, data, RetargetSpec{Nodes: 2, Policy: RoundRobin()})

	res, err := Diff(bytes.NewReader(data), bytes.NewReader(other))
	if err != nil {
		t.Fatal(err)
	}
	if res.ShapeMismatch == nil {
		t.Fatal("shape mismatch not reported")
	}
	if res.Identical || res.First != nil || len(res.PerCPU) != 0 {
		t.Fatalf("shape-mismatched diff walked records anyway: %+v", res)
	}
	if !strings.Contains(res.ShapeMismatch.Error(), "nodes") {
		t.Fatalf("mismatch %v does not name the differing dimension", res.ShapeMismatch)
	}
}

// TestDiffLengthMismatch: a truncated stream reports the short side's
// length as the divergence index, with the ended side marked.
func TestDiffLengthMismatch(t *testing.T) {
	h := testHeader()
	refs := randRefs(h, 100, 23)
	short := make([][]trace.Ref, len(refs))
	for c := range refs {
		short[c] = refs[c]
	}
	short[1] = refs[1][:60]

	res, err := Diff(bytes.NewReader(encode(t, h, refs)), bytes.NewReader(encode(t, h, short)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Identical {
		t.Fatal("length mismatch not detected")
	}
	if res.First == nil || res.First.CPU != 1 || res.First.Index != 60 || !res.First.BEnded {
		t.Fatalf("first divergence = %+v, want cpu 1 record 60 with B ended", res.First)
	}
	s := res.PerCPU[1]
	if s.ARecords != 100 || s.BRecords != 60 || s.Differing != 0 || s.FirstIndex != 60 {
		t.Fatalf("cpu 1 summary = %+v", s)
	}
}

// TestRetargetRejectsBadShape covers the spec validation path: negative
// dimensions and CPU counts that do not divide across the nodes (which
// every replay surface would reject one step later).
func TestRetargetRejectsBadShape(t *testing.T) {
	data := encode(t, testHeader(), randRefs(testHeader(), 10, 29))
	for _, spec := range []RetargetSpec{
		{Nodes: -1}, {CPUs: -2}, {Pages: -3},
		{Nodes: 3},          // 4 CPUs on 3 nodes
		{Nodes: 8},          // 4 CPUs on 8 nodes
		{CPUs: 6},           // 6 CPUs on 4 nodes
		{Nodes: 2, CPUs: 3}, // 3 CPUs on 2 nodes
	} {
		var buf bytes.Buffer
		if _, err := Retarget(&buf, bytes.NewReader(data), spec); err == nil {
			t.Errorf("spec %+v accepted", spec)
		}
	}
	if _, err := PolicyByName("bogus"); err == nil {
		t.Error("unknown policy name accepted")
	}
}

// TestPolicyNamesAndFoldStrings pins the CLI-facing spellings: every
// built-in policy resolves by name (with its aliases), reports that
// name back, unknown names are rejected, and fold policies print the
// flag spelling.
func TestPolicyNamesAndFoldStrings(t *testing.T) {
	for arg, want := range map[string]string{
		"":           "identity",
		"identity":   "identity",
		"roundrobin": "roundrobin",
		"rr":         "roundrobin",
		"modulo":     "modulo",
		"fold":       "modulo",
	} {
		p, err := PolicyByName(arg)
		if err != nil {
			t.Fatalf("PolicyByName(%q): %v", arg, err)
		}
		if p.Name() != want {
			t.Errorf("PolicyByName(%q).Name() = %q, want %q", arg, p.Name(), want)
		}
	}
	if _, err := PolicyByName("bogus"); err == nil {
		t.Error("unknown policy name accepted")
	}
	if FoldModulo.String() != "modulo" || FoldInterleave.String() != "interleave" {
		t.Errorf("fold spellings: %q, %q", FoldModulo, FoldInterleave)
	}
}
