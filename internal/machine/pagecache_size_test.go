package machine

import (
	"reflect"
	"runtime"
	"testing"

	"rnuma/internal/addr"
	"rnuma/internal/config"
	"rnuma/internal/stats"
	"rnuma/internal/workloads"
)

// TestPageCacheSizedByUse: page-cache frames are created on first use, so
// a page cache no run can fill costs what the run touches. An R-NUMA run
// of a catalog application that fills neither cache is identical under
// the paper's 40-MiB page cache and a 1-GiB one, and building and running
// the 1-GiB machine allocates no more than a machine whose page cache
// holds exactly the application's pages.
func TestPageCacheSizedByUse(t *testing.T) {
	app, _ := workloads.ByName("radix")
	cfg := workloads.DefaultConfig()
	cfg.Scale = 0.05
	wl := app.Build(cfg)
	run := func(pageCacheBytes int) (*stats.Run, uint64) {
		sys := config.Base(config.RNUMA)
		sys.PageCacheBytes = pageCacheBytes
		w := wl.Fresh()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := New(sys, WithHomes(w.Homes), WithPages(w.SharedPages))
		if err != nil {
			t.Fatal(err)
		}
		r, err := m.Run(w.Streams)
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return r, after.TotalAlloc - before.TotalAlloc
	}
	segment := wl.SharedPages * addr.Default.PageBytes()
	if segment >= 40<<20 {
		t.Fatalf("a %d-page segment fills the 40-MiB page cache", wl.SharedPages)
	}
	paper, _ := run(40 << 20)
	if paper.Relocations == 0 {
		t.Fatal("the run relocates no page: it does not exercise the page cache")
	}
	huge, hugeBytes := run(1 << 30)
	if !reflect.DeepEqual(huge, paper) {
		t.Errorf("1-GiB page cache run differs from the 40-MiB one:\n%+v\n%+v", huge, paper)
	}
	fit, fitBytes := run(segment)
	if !reflect.DeepEqual(fit, paper) {
		t.Errorf("segment-sized page cache run differs from the 40-MiB one")
	}
	if limit := fitBytes + fitBytes/100 + 64<<10; hugeBytes > limit {
		t.Errorf("the 1-GiB machine allocates %d bytes, past the %d a %d-page page cache bounds", hugeBytes, limit, wl.SharedPages)
	}
	t.Logf("%d pages, %d relocations: 1-GiB machine %d bytes, segment-sized %d", wl.SharedPages, paper.Relocations, hugeBytes, fitBytes)
}
