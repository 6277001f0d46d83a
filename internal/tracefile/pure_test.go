package tracefile

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"rnuma/internal/trace"
)

// The pure forms' tests. Each transform of the committed CI capture runs
// both ways: through its io wrapper (decode, map, encode) and as its pure
// form applied to the decoded capture. The two must agree on the header,
// on every record and on every error, and the wrapper's bytes must not
// move: each case pins the SHA-256 its output had before the transforms
// were split into pure forms.

// transformCase is one transform of the CI capture: exactly one spec is
// set. sha256 is the wrapper output's digest; err, for a spec the
// capture rejects, the error both paths return.
type transformCase struct {
	name     string
	retarget *RetargetSpec
	dilate   *DilateSpec
	geometry *GeometrySpec
	sha256   string
	err      string
}

// ciMapFile reverses the capture's 448 pages and homes them on two
// nodes in runs of seven pages.
func ciMapFile() RemapPolicy {
	m := mapFile{Pages: make([]int, 448), Homes: make([]int, 448)}
	for p := range m.Pages {
		m.Pages[p] = 447 - p
		m.Homes[p] = (p / 7) % 2
	}
	data, err := json.Marshal(m)
	if err != nil {
		panic(err)
	}
	pol, err := MapFilePolicy(data)
	if err != nil {
		panic(err)
	}
	return pol
}

var transformCases = []transformCase{
	{name: "retarget identity", retarget: &RetargetSpec{},
		sha256: "46637e06e0d10da96afbf9e38b74643afd326d752c780edb64b7f6d9fd721f15"},
	{name: "retarget identity 4 nodes", retarget: &RetargetSpec{Nodes: 4},
		sha256: "fedcdbbdf0f5a86cc05bd3ac6510e700fc083a0e3c80fdd8c9b1cf450c2d61e0"},
	{name: "retarget roundrobin 16 nodes", retarget: &RetargetSpec{Nodes: 16, Policy: RoundRobin(), Name: "fft@16n"},
		sha256: "c1faad81c6c091ec5d7042e108b6319f273bbb1540ec452166341d02220996ad"},
	{name: "retarget roundrobin 64 cpus", retarget: &RetargetSpec{Nodes: 16, CPUs: 64, Policy: RoundRobin()},
		sha256: "16acdba00b87a05bc5ea62355507900899f0fa976e5c54a8ce65ab514d46cc16"},
	{name: "retarget modulo fold", retarget: &RetargetSpec{Nodes: 4, CPUs: 16, Pages: 200, Policy: ModuloFold()},
		sha256: "e9cfd94e598fa4f329d669d91ece87eb1ee22c9e4761bdaf3bc39fdf9f6d2020"},
	{name: "retarget interleave fold", retarget: &RetargetSpec{Nodes: 3, CPUs: 12, Policy: RoundRobin(), CPUFold: FoldInterleave},
		sha256: "fe81f4e3f188ac874138795edf1a365a6ba2bb7b44197f41421735afea8f5f4a"},
	{name: "retarget map file", retarget: &RetargetSpec{Nodes: 2, Policy: ciMapFile(), Name: "fft@mapped"},
		sha256: "5f804ee8a21711d0a644f26a9699ebf58722f66eedf27a2dc0004a965a9ae879"},
	{name: "dilate 1/2", dilate: &DilateSpec{Num: 1, Den: 2},
		sha256: "9ac6b4fffa7f3ba7499df57287e58f5816fd55844f75ff7951e597eaa8913785"},
	{name: "dilate 3 clamped", dilate: &DilateSpec{Num: 3, Den: 1, Clamp: 50},
		sha256: "40ae5138d70444c1920e14f5d051b4ed40a941053ea95a7033a3f21f4f43ed00"},
	{name: "dilate 7/3 renamed", dilate: &DilateSpec{Num: 7, Den: 3, Name: "fft@x7/3"},
		sha256: "61e3fb98bddfaa42bfeb141f72f01c465e8287496c8a87d3b81e5a4adfafb27c"},
	{name: "geometry block 16", geometry: &GeometrySpec{BlockBytes: 16},
		sha256: "6b0748f0bd295235b35dcb71e6ccdaa2aac1b4ec8bbf0106ce199a343fa14ca2"},
	{name: "geometry block 128", geometry: &GeometrySpec{BlockBytes: 128},
		sha256: "8cac507c4f469b5f098b8e4b8992effa900583e90f3a11b54da1ca1699d5a502"},
	{name: "geometry page 2048", geometry: &GeometrySpec{PageBytes: 2048},
		sha256: "4b32da0e2b5a0d5181e1b299bc7687c58151332829ff3c31845a3331c9114e3b"},
	{name: "geometry page 16384 block 64", geometry: &GeometrySpec{BlockBytes: 64, PageBytes: 16384},
		sha256: "93a6655937ad64045e34144ceec63e6a74b22f52e9e2c368e3250352148799ed"},
	{name: "geometry page 8192 renamed", geometry: &GeometrySpec{PageBytes: 8192, Name: "fft@page8192"},
		sha256: "7899ecc03b87e82bb14f1f6f28b40c64dfcc74d3ec2934b619246638687afa02"},
	{name: "geometry 24-byte block", geometry: &GeometrySpec{BlockBytes: 24},
		err: "tracefile: block size 24 is not a power of two"},
	{name: "retarget page outside identity segment", retarget: &RetargetSpec{Pages: 100},
		err: "tracefile: retarget: page 112 outside the 100-page target segment (policy \"identity\" does not fold; retarget with the modulo policy to wrap pages)"},
	{name: "geometry 2^18 blocks per page", geometry: &GeometrySpec{BlockBytes: 4, PageBytes: 1 << 20},
		err: "tracefile: target geometry has 262144 blocks/page, offsets overflow the 16-bit record field"},
	{name: "retarget segment past the bound", retarget: &RetargetSpec{Pages: 1 << 18},
		err: "tracefile: addr: 262144 pages of 128 blocks exceed the 16777216-block segment bound"},
}

// wrap runs the case's io wrapper over src.
func (c transformCase) wrap(dst io.Writer, src io.Reader) (int64, error) {
	switch {
	case c.retarget != nil:
		return Retarget(dst, src, *c.retarget)
	case c.dilate != nil:
		return Dilate(dst, src, *c.dilate)
	default:
		return RetargetGeometry(dst, src, *c.geometry)
	}
}

// pure builds the case's pure form over a source header.
func (c transformCase) pure(src Header) (Map, error) {
	switch {
	case c.retarget != nil:
		return RetargetMap(src, *c.retarget)
	case c.dilate != nil:
		return DilateMap(src, *c.dilate)
	default:
		return RetargetGeometryMap(src, *c.geometry)
	}
}

// ciCapture reads the committed CI capture.
func ciCapture(t *testing.T) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "ci", "fft.trace"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// applyMap maps a decoded trace's records in the canonical round-robin
// order, as the wrappers do, collecting each output record on the CPU
// the map assigns it.
func applyMap(m Map, refs [][]trace.Ref) ([][]trace.Ref, error) {
	streams := make([]trace.Stream, len(refs))
	for c, r := range refs {
		streams[c] = trace.FromSlice(r)
	}
	out := make([][]trace.Ref, m.Header.CPUs)
	err := roundRobin(streams, func(cpu int, r trace.Ref) error {
		cpu, err := m.Record(cpu, &r)
		if err != nil {
			return err
		}
		out[cpu] = append(out[cpu], r)
		return nil
	})
	return out, err
}

// TestPureFormsMatchWrappers applies every case both ways.
func TestPureFormsMatchWrappers(t *testing.T) {
	data := ciCapture(t)
	srcHdr, srcRefs := decode(t, data)
	for _, c := range transformCases {
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			_, werr := c.wrap(&buf, bytes.NewReader(data))
			m, perr := c.pure(srcHdr)
			var got [][]trace.Ref
			if perr == nil {
				got, perr = applyMap(m, srcRefs)
			}
			if c.err != "" {
				if werr == nil || perr == nil || werr.Error() != c.err || perr.Error() != c.err {
					t.Fatalf("wrapper error %v, pure form error %v, want %q from both", werr, perr, c.err)
				}
				return
			}
			if werr != nil || perr != nil {
				t.Fatalf("wrapper error %v, pure form error %v", werr, perr)
			}
			if sum := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); sum != c.sha256 {
				t.Errorf("wrapper output sha256 %s, pinned %s", sum, c.sha256)
			}
			wantHdr, want := decode(t, buf.Bytes())
			if !reflect.DeepEqual(m.Header, wantHdr) {
				t.Errorf("pure header %+v, wrapper's %+v", m.Header, wantHdr)
			}
			for cpu := range want {
				if len(got[cpu]) != len(want[cpu]) || (len(want[cpu]) > 0 && !reflect.DeepEqual(got[cpu], want[cpu])) {
					t.Fatalf("cpu %d: pure form's %d records differ from the wrapper's %d", cpu, len(got[cpu]), len(want[cpu]))
				}
			}
		})
	}
}
