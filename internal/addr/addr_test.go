package addr

import (
	"testing"
	"testing/quick"
)

func TestDefaultGeometry(t *testing.T) {
	g := Default
	if err := g.Validate(); err != nil {
		t.Fatalf("default geometry invalid: %v", err)
	}
	if g.BlockBytes() != 32 {
		t.Errorf("block bytes = %d, want 32", g.BlockBytes())
	}
	if g.PageBytes() != 4096 {
		t.Errorf("page bytes = %d, want 4096", g.PageBytes())
	}
	if g.BlocksPerPage() != 128 {
		t.Errorf("blocks/page = %d, want 128", g.BlocksPerPage())
	}
}

func TestBlockOfRoundTrip(t *testing.T) {
	g := Default
	for _, tc := range []struct {
		page PageNum
		off  int
	}{{0, 0}, {0, 127}, {1, 0}, {17, 42}, {100000, 99}} {
		b := g.BlockOf(tc.page, tc.off)
		if got := g.PageOf(b); got != tc.page {
			t.Errorf("PageOf(BlockOf(%d,%d)) = %d", tc.page, tc.off, got)
		}
		if got := g.OffsetOf(b); got != tc.off {
			t.Errorf("OffsetOf(BlockOf(%d,%d)) = %d", tc.page, tc.off, got)
		}
	}
}

func TestBlockOfRoundTripProperty(t *testing.T) {
	g := Default
	f := func(p uint32, off uint8) bool {
		page := PageNum(p % (1 << 20))
		o := int(off) % g.BlocksPerPage()
		b := g.BlockOf(page, o)
		return g.PageOf(b) == page && g.OffsetOf(b) == o
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBlockNumbersContiguous(t *testing.T) {
	g := Default
	// Last block of page p and first block of page p+1 are adjacent.
	last := g.BlockOf(7, g.BlocksPerPage()-1)
	first := g.BlockOf(8, 0)
	if first != last+1 {
		t.Errorf("pages not contiguous: %d then %d", last, first)
	}
}

func TestBlocksFor(t *testing.T) {
	g := Default
	if got := g.BlocksFor(0); got != 0 {
		t.Errorf("BlocksFor(0) = %d, want 0", got)
	}
	if got := g.BlocksFor(3); got != 3*g.BlocksPerPage() {
		t.Errorf("BlocksFor(3) = %d, want %d", got, 3*g.BlocksPerPage())
	}
	// A dense block table sized by BlocksFor covers every block of every
	// page below the bound.
	n := 5
	limit := g.BlocksFor(n)
	b := g.BlockOf(PageNum(n-1), g.BlocksPerPage()-1)
	if int(b) != limit-1 {
		t.Errorf("last block of page %d = %d, want table size %d - 1", n-1, b, limit)
	}
}

func TestGeometryValidate(t *testing.T) {
	bad := []Geometry{
		{BlockShift: 1, PageShift: 12}, // block too small
		{BlockShift: 5, PageShift: 5},  // page == block
		{BlockShift: 5, PageShift: 4},  // page < block
		{BlockShift: 5, PageShift: 30}, // page too large
	}
	for _, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("geometry %+v should be invalid", g)
		}
	}
	good := Geometry{BlockShift: 6, PageShift: 13}
	if err := good.Validate(); err != nil {
		t.Errorf("geometry %+v should be valid: %v", good, err)
	}
	if good.BlocksPerPage() != 128 {
		t.Errorf("64B blocks in 8K pages = %d, want 128", good.BlocksPerPage())
	}
}

// TestCheckSegment: the bound is exact in blocks, whatever the geometry.
func TestCheckSegment(t *testing.T) {
	for _, g := range []Geometry{Default, {BlockShift: 2, PageShift: 24}} {
		limit := MaxSegmentBlocks / g.BlocksPerPage()
		if err := g.CheckSegment(limit); err != nil {
			t.Errorf("%v: %d pages (%d blocks) rejected: %v", g, limit, g.BlocksFor(limit), err)
		}
		if err := g.CheckSegment(limit + 1); err == nil {
			t.Errorf("%v: %d pages (%d blocks) accepted", g, limit+1, g.BlocksFor(limit+1))
		}
		if err := g.CheckSegment(-1); err == nil {
			t.Errorf("%v: negative page count accepted", g)
		}
	}
}

func TestGeometryString(t *testing.T) {
	if s := Default.String(); s == "" {
		t.Error("empty geometry string")
	}
}
