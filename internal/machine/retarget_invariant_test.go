package machine

import (
	"bytes"
	"fmt"
	"testing"

	"rnuma/internal/addr"
	"rnuma/internal/config"
	"rnuma/internal/tracefile"
)

// TestRetargetedTracePassesInvariants is the transform layer's protocol
// acceptance check: a trace captured on an 8-node machine, retargeted to
// 16 nodes with round-robin re-homing, must drive all three designs
// without tripping the cross-layer invariant checker or the
// version-truth verifier — a retarget produces a trace as coherent as a
// native capture, not merely one that decodes.
func TestRetargetedTracePassesInvariants(t *testing.T) {
	const (
		srcNodes = 8
		dstNodes = 16
		cpus     = 16
		pages    = 16
		perCPU   = 2000
	)
	g := addr.Geometry{BlockShift: 5, PageShift: 8}
	homes := make([]addr.NodeID, pages)
	for p := range homes {
		homes[p] = addr.NodeID(p % srcNodes)
	}
	hdr := tracefile.Header{
		Name:        "retarget-invariants",
		Geometry:    g,
		CPUs:        cpus,
		Nodes:       srcNodes,
		SharedPages: pages,
		Homes:       homes,
	}
	var src bytes.Buffer
	tw, err := tracefile.NewWriter(&src, hdr)
	if err != nil {
		t.Fatal(err)
	}
	streams := randomStreams(27, cpus, pages, perCPU, 0.35)
	for i := 0; i < perCPU; i++ {
		for c, s := range streams {
			r, ok := s.Next()
			if !ok {
				t.Fatalf("cpu %d ended early", c)
			}
			if err := tw.Append(c, r); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}

	var dst bytes.Buffer
	if _, err := tracefile.Retarget(&dst, bytes.NewReader(src.Bytes()),
		tracefile.RetargetSpec{Nodes: dstNodes, Policy: tracefile.RoundRobin()}); err != nil {
		t.Fatal(err)
	}

	for _, p := range []config.Protocol{config.CCNUMA, config.SCOMA, config.RNUMA} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			replayTraceWithInvariantChecks(t, dst.Bytes(), p, dstNodes, cpus)
		})
	}
}

// replayTraceWithInvariantChecks replays an encoded trace on a tinySys
// machine of the trace's recorded geometry and the given shape, stopping
// every checkEvery references to assert the cross-layer invariants.
func replayTraceWithInvariantChecks(t *testing.T, data []byte, p config.Protocol, wantNodes, wantCPUs int) {
	t.Helper()
	d, err := tracefile.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	rh := d.Header()
	if rh.Nodes != wantNodes || rh.CPUs != wantCPUs {
		t.Fatalf("retargeted shape %d nodes/%d cpus", rh.Nodes, rh.CPUs)
	}
	sys := tinySys(p)
	sys.Geometry = rh.Geometry
	sys.Nodes, sys.CPUsPerNode = rh.Nodes, rh.CPUs/rh.Nodes
	m, err := New(sys, WithHomes(rh.HomeFunc()), WithVerify(), WithPages(rh.SharedPages))
	if err != nil {
		t.Fatal(err)
	}
	var (
		pulled int64
		prev   counterSnapshot
		failed error
	)
	check := func() {
		if failed != nil {
			return
		}
		now := snapshot(m)
		for _, err := range []error{
			checkCoherence(m),
			checkMappings(m),
			now.monotoneSince(prev),
			now.protocolConstraints(p),
		} {
			if err != nil {
				failed = fmt.Errorf("after %d refs: %w", pulled, err)
				return
			}
		}
		prev = now
	}
	replay := d.Streams()
	checkedStreams(replay, &pulled, check)
	if _, err := m.Run(replay); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := d.Err(); err != nil {
		t.Fatalf("decode: %v", err)
	}
	check()
	if failed != nil {
		t.Fatal(failed)
	}
}

// TestGeometryRetargetedTracePassesInvariants is the geometry
// transform's protocol acceptance check: a capture re-split onto a
// halved block size must drive all three designs through the invariant
// checker and the version-truth verifier, exactly like a native capture
// of that geometry would.
func TestGeometryRetargetedTracePassesInvariants(t *testing.T) {
	const (
		nodes  = 4
		cpus   = 8
		pages  = 16
		perCPU = 1500
	)
	g := addr.Geometry{BlockShift: 5, PageShift: 8}
	homes := make([]addr.NodeID, pages)
	for p := range homes {
		homes[p] = addr.NodeID(p % nodes)
	}
	hdr := tracefile.Header{
		Name:        "geometry-invariants",
		Geometry:    g,
		CPUs:        cpus,
		Nodes:       nodes,
		SharedPages: pages,
		Homes:       homes,
	}
	var src bytes.Buffer
	tw, err := tracefile.NewWriter(&src, hdr)
	if err != nil {
		t.Fatal(err)
	}
	streams := randomStreams(41, cpus, pages, perCPU, 0.3)
	for i := 0; i < perCPU; i++ {
		for c, s := range streams {
			r, ok := s.Next()
			if !ok {
				t.Fatalf("cpu %d ended early", c)
			}
			if err := tw.Append(c, r); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}

	var dst bytes.Buffer
	if _, err := tracefile.RetargetGeometry(&dst, bytes.NewReader(src.Bytes()),
		tracefile.GeometrySpec{BlockBytes: 16}); err != nil {
		t.Fatal(err)
	}
	rh, err := tracefile.NewReader(bytes.NewReader(dst.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got := rh.Header().Geometry.BlockBytes(); got != 16 {
		t.Fatalf("retargeted block size = %d, want 16", got)
	}

	for _, p := range []config.Protocol{config.CCNUMA, config.SCOMA, config.RNUMA} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			replayTraceWithInvariantChecks(t, dst.Bytes(), p, nodes, cpus)
		})
	}
}
