package tracefile

import (
	"fmt"
	"io"

	"rnuma/internal/addr"
	"rnuma/internal/trace"
)

// This file implements geometry retargeting: rewriting a trace onto a
// different block/page geometry. Shape retargets (transform.go) keep the
// geometry fixed because changing it re-splits every address; this
// transform does exactly that re-splitting, so one capture can drive
// block-size and page-size sensitivity studies the way shape retargets
// drive node-count sweeps.
//
// The mapping works at the byte level: a record names the block starting
// at byte address (page << pageShift) + (off << blockShift) of the shared
// segment, and the rewritten record names the target-geometry block
// containing that same byte. Growing the block size folds neighboring
// source blocks together (coarser coherence granularity); shrinking it
// maps each source block to its first target sub-block (the reference
// address is preserved; a trace records block touches, not byte spans).
// Page homes carry over by byte address too: a target page is homed where
// the source page containing its first byte was homed, so placement
// survives page-size changes at the granularity the source expressed it.

// GeometrySpec describes the target of a geometry retarget. Zero-valued
// shift fields keep the source's value, so a spec selects only the
// dimension it changes.
type GeometrySpec struct {
	// BlockBytes and PageBytes are the target sizes; 0 keeps the source
	// geometry's value. Both must be powers of two within the ranges
	// addr.Geometry.Validate accepts.
	BlockBytes, PageBytes int
	// Name renames the retargeted workload; "" keeps the source name.
	Name string
}

// log2 returns the exponent of a power of two, or an error.
func log2(what string, v int) (uint, error) {
	if v <= 0 || v&(v-1) != 0 {
		return 0, fmt.Errorf("tracefile: %s %d is not a power of two", what, v)
	}
	var s uint
	for 1<<s != v {
		s++
	}
	return s, nil
}

// resolve fills the spec's zero fields from the source geometry and
// validates the result.
func (s GeometrySpec) resolve(src addr.Geometry) (addr.Geometry, error) {
	if s.BlockBytes < 0 || s.PageBytes < 0 {
		return addr.Geometry{}, fmt.Errorf("tracefile: geometry retarget to %d-byte blocks/%d-byte pages (negative)", s.BlockBytes, s.PageBytes)
	}
	g := src
	if s.BlockBytes != 0 {
		shift, err := log2("block size", s.BlockBytes)
		if err != nil {
			return addr.Geometry{}, err
		}
		g.BlockShift = shift
	}
	if s.PageBytes != 0 {
		shift, err := log2("page size", s.PageBytes)
		if err != nil {
			return addr.Geometry{}, err
		}
		g.PageShift = shift
	}
	if err := g.Validate(); err != nil {
		return addr.Geometry{}, err
	}
	// trace.Ref carries block offsets in 16 bits; a geometry whose pages
	// hold more blocks than that cannot express every offset.
	if g.BlocksPerPage() > 1<<16 {
		return addr.Geometry{}, fmt.Errorf("tracefile: target geometry has %d blocks/page, offsets overflow the 16-bit record field", g.BlocksPerPage())
	}
	return g, nil
}

// RetargetGeometry rewrites src onto the spec's block/page geometry:
// every record's (page, offset) pair is re-split against the target
// sizes, the shared segment is re-sized to cover the same byte range, and
// the page-home map carries over by byte address. CPU attribution, gaps,
// and flags are untouched. Retargeting onto the source's own geometry
// reproduces the trace exactly (the canonical hash is preserved). Returns
// the record count written.
func RetargetGeometry(dst io.Writer, src io.Reader, spec GeometrySpec) (int64, error) {
	return apply(dst, src, func(h Header) (Map, error) { return RetargetGeometryMap(h, spec) })
}

// RetargetGeometryMap is RetargetGeometry's pure form.
func RetargetGeometryMap(src Header, spec GeometrySpec) (Map, error) {
	sg := src.Geometry
	tg, err := spec.resolve(sg)
	if err != nil {
		return Map{}, err
	}

	// The segment keeps its byte size: target pages = ceil(source bytes /
	// target page bytes).
	srcBytes := uint64(src.SharedPages) << sg.PageShift
	pages := int((srcBytes + uint64(tg.PageBytes()) - 1) >> tg.PageShift)
	homes := src.Homes // a block-size change keeps the pages
	if tg.PageShift != sg.PageShift {
		homes = make([]addr.NodeID, pages)
		for q := range homes {
			sp := (uint64(q) << tg.PageShift) >> sg.PageShift
			if sp < uint64(len(src.Homes)) {
				homes[q] = src.Homes[sp]
			} else {
				homes[q] = addr.NodeID(q % src.Nodes)
			}
		}
	}
	nh := Header{
		Name:        src.Name,
		Geometry:    tg,
		CPUs:        src.CPUs,
		Nodes:       src.Nodes,
		SharedPages: pages,
		Homes:       homes,
	}
	if spec.Name != "" {
		nh.Name = spec.Name
	}
	if err := nh.Validate(); err != nil {
		return Map{}, err
	}
	blocksPerPage := uint64(tg.BlocksPerPage())
	return Map{Header: nh, Record: func(cpu int, r *trace.Ref) (int, error) {
		if !r.Barrier {
			a := (uint64(r.Page) << sg.PageShift) | (uint64(r.Off) << sg.BlockShift)
			r.Page = addr.PageNum(a >> tg.PageShift)
			r.Off = uint16((a >> tg.BlockShift) & (blocksPerPage - 1))
		}
		return cpu, nh.checkRecord(cpu, r)
	}}, nil
}
