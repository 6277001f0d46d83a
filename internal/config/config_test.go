package config

import (
	"strings"
	"testing"

	"rnuma/internal/addr"
)

// TestTable2Costs pins the base costs to the paper's Table 2.
func TestTable2Costs(t *testing.T) {
	c := BaseCosts()
	if c.SRAMAccess != 8 {
		t.Errorf("SRAM access = %d, want 8", c.SRAMAccess)
	}
	if c.DRAMAccess != 56 {
		t.Errorf("DRAM access = %d, want 56", c.DRAMAccess)
	}
	if c.LocalFill != 69 {
		t.Errorf("local cache fill = %d, want 69", c.LocalFill)
	}
	if c.RemoteFetch != 376 {
		t.Errorf("remote fetch = %d, want 376", c.RemoteFetch)
	}
	if c.SoftTrap != 2000 {
		t.Errorf("soft trap = %d, want 2000", c.SoftTrap)
	}
	if c.TLBShootdown != 200 {
		t.Errorf("TLB shootdown = %d, want 200", c.TLBShootdown)
	}
}

// TestPageOpRange checks the allocation/replacement cost spans the paper's
// 3000~11500 range across 0..128 flushed blocks.
func TestPageOpRange(t *testing.T) {
	c := BaseCosts()
	if got := c.PageOpCost(0); got != 3000 {
		t.Errorf("page op with 0 flushed = %d, want 3000", got)
	}
	max := c.PageOpCost(addr.Default.BlocksPerPage())
	if max < 11000 || max > 11500 {
		t.Errorf("page op with 128 flushed = %d, want ~11500", max)
	}
}

// TestSoftCosts checks the Figure-9 slow-system variant: 10-µs traps and
// 5-µs software shootdowns, i.e., roughly 3x the base per-page overhead.
func TestSoftCosts(t *testing.T) {
	b, s := BaseCosts(), SoftCosts()
	if s.SoftTrap != 2*b.SoftTrap {
		t.Errorf("soft trap = %d, want %d", s.SoftTrap, 2*b.SoftTrap)
	}
	if s.TLBShootdown != 10*b.TLBShootdown {
		t.Errorf("soft shootdown = %d, want %d", s.TLBShootdown, 10*b.TLBShootdown)
	}
	ratio := float64(s.PageOpBase()) / float64(b.PageOpBase())
	if ratio < 2.0 || ratio > 3.2 {
		t.Errorf("per-page overhead ratio = %.2f, want approximately 3", ratio)
	}
	// Block costs unchanged.
	if s.RemoteFetch != b.RemoteFetch || s.LocalFill != b.LocalFill {
		t.Error("SOFT variant must not change block operation costs")
	}
}

func TestBlockCacheHitCost(t *testing.T) {
	c := BaseCosts()
	// SRAM lookup replaces the DRAM access in a local fill: 8 + 69 - 56.
	if got := c.BlockCacheHit(); got != 21 {
		t.Errorf("block cache hit = %d, want 21", got)
	}
}

// TestBaseConfigs pins the Section-4 base machine for each protocol.
func TestBaseConfigs(t *testing.T) {
	cc := Base(CCNUMA)
	if cc.BlockCacheBytes != 32<<10 || cc.PageCacheBytes != 0 {
		t.Errorf("CC-NUMA base: bc=%d pc=%d", cc.BlockCacheBytes, cc.PageCacheBytes)
	}
	sc := Base(SCOMA)
	if sc.PageCacheBytes != 320<<10 || sc.BlockCacheBytes != 0 {
		t.Errorf("S-COMA base: bc=%d pc=%d", sc.BlockCacheBytes, sc.PageCacheBytes)
	}
	rn := Base(RNUMA)
	if rn.BlockCacheBytes != 128 || rn.PageCacheBytes != 320<<10 || rn.Threshold != 64 {
		t.Errorf("R-NUMA base: bc=%d pc=%d T=%d", rn.BlockCacheBytes, rn.PageCacheBytes, rn.Threshold)
	}
	for _, s := range []System{cc, sc, rn, Ideal()} {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
		if s.Nodes != 8 || s.CPUsPerNode != 4 {
			t.Errorf("%s: %dx%d machine, want 8x4", s.Name, s.Nodes, s.CPUsPerNode)
		}
		if s.L1Bytes != 8<<10 {
			t.Errorf("%s: L1=%d, want 8K", s.Name, s.L1Bytes)
		}
	}
	// The page cache is a factor of 10 larger than the CC-NUMA block cache.
	if sc.PageCacheBytes != 10*cc.BlockCacheBytes {
		t.Errorf("page cache %d not 10x block cache %d", sc.PageCacheBytes, cc.BlockCacheBytes)
	}
}

func TestDerivedSizes(t *testing.T) {
	cc := Base(CCNUMA)
	if got := cc.BlockCacheBlocks(); got != 1024 {
		t.Errorf("32-KB block cache = %d blocks, want 1024", got)
	}
	sc := Base(SCOMA)
	if got := sc.PageCacheFrames(); got != 80 {
		t.Errorf("320-KB page cache = %d frames, want 80", got)
	}
	rn := Base(RNUMA)
	if got := rn.BlockCacheBlocks(); got != 4 {
		t.Errorf("128-B block cache = %d blocks, want 4", got)
	}
	if Ideal().BlockCacheBlocks() != -1 {
		t.Error("ideal machine should report an infinite block cache")
	}
	if cc.TotalCPUs() != 32 {
		t.Errorf("total CPUs = %d, want 32", cc.TotalCPUs())
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []func(*System){
		func(s *System) { s.Nodes = 0 },
		func(s *System) { s.Nodes = 33 },
		func(s *System) { s.CPUsPerNode = 0 },
		func(s *System) { s.L1Bytes = 16 },
		func(s *System) { s.L1Bytes = 3000 },
		func(s *System) { s.BlockCacheBytes = 0 },
		func(s *System) { s.BlockCacheBytes = 100 },
	}
	for i, mutate := range cases {
		s := Base(CCNUMA)
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	r := Base(RNUMA)
	r.Threshold = 0
	if err := r.Validate(); err == nil {
		t.Error("R-NUMA with threshold 0 should be invalid")
	}
	sc := Base(SCOMA)
	sc.PageCacheBytes = 100
	if err := sc.Validate(); err == nil {
		t.Error("S-COMA with sub-page page cache should be invalid")
	}
}

// TestValidateBlockCacheSizes: the block cache is direct-mapped and
// indexed by masking the block number, so only a power-of-two number of
// blocks models it; a rejected size is named in the error.
func TestValidateBlockCacheSizes(t *testing.T) {
	blk := addr.Default.BlockBytes()
	for _, tc := range []struct {
		bytes int
		want  string // "" accepts; otherwise a substring of the error
	}{
		{InfiniteBlockCache, ""},
		{blk, ""},
		{128, ""},
		{32 << 10, ""},
		{addr.MaxSegmentBlocks * blk, ""},
		{96, "96 B holds 3 blocks, not a power of two"},
		{100, "100 B not a multiple of the block size"},
		{3 << 10, "3072 B holds 96 blocks, not a power of two"},
		{-2, "block cache size -2 B is negative"},
		{-4096, "block cache size -4096 B is negative"},
		{2 * addr.MaxSegmentBlocks * blk, "past the 16777216-block segment bound"},
	} {
		for _, p := range []Protocol{CCNUMA, RNUMA} {
			s := Base(p)
			s.BlockCacheBytes = tc.bytes
			err := s.Validate()
			switch {
			case tc.want == "" && err != nil:
				t.Errorf("%v with a %d-B block cache: %v", p, tc.bytes, err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Errorf("%v with a %d-B block cache: error %v, want one containing %q", p, tc.bytes, err, tc.want)
			}
		}
	}
}

func TestProtocolString(t *testing.T) {
	if CCNUMA.String() != "CC-NUMA" || SCOMA.String() != "S-COMA" || RNUMA.String() != "R-NUMA" {
		t.Error("protocol names must match the paper")
	}
	if Protocol(9).String() == "" {
		t.Error("unknown protocol should still render")
	}
}

func TestSystemByName(t *testing.T) {
	for name, want := range map[string]Protocol{
		"ccnuma": CCNUMA, "CC-NUMA": CCNUMA, "cc": CCNUMA,
		"scoma": SCOMA, "s-coma": SCOMA, "sc": SCOMA,
		"rnuma": RNUMA, "R-numa": RNUMA, "r": RNUMA,
	} {
		sys, err := SystemByName(name)
		if err != nil || sys.Protocol != want {
			t.Errorf("SystemByName(%q) = %v protocol %v, want %v", name, err, sys.Protocol, want)
		}
	}
	if sys, err := SystemByName("ideal"); err != nil || sys.BlockCacheBytes != InfiniteBlockCache {
		t.Errorf("SystemByName(ideal) = %+v, %v", sys, err)
	}
	if _, err := SystemByName("doom"); err == nil {
		t.Error("unknown protocol accepted")
	}
}
