package workloads

import (
	"testing"

	"rnuma/internal/addr"
	"rnuma/internal/trace"
)

func smallCfg() Config {
	c := DefaultConfig()
	c.Scale = 0.35
	return c
}

func TestCatalogComplete(t *testing.T) {
	apps := Catalog()
	if len(apps) != 10 {
		t.Fatalf("catalog has %d apps, want 10 (Table 3)", len(apps))
	}
	want := []string{"barnes", "cholesky", "em3d", "fft", "fmm", "lu", "moldyn", "ocean", "radix", "raytrace"}
	for i, a := range apps {
		if a.Name != want[i] {
			t.Errorf("catalog[%d] = %q, want %q", i, a.Name, want[i])
		}
		if a.Description == "" || a.PaperInput == "" || a.Build == nil {
			t.Errorf("%s: incomplete catalog entry", a.Name)
		}
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("radix"); !ok {
		t.Error("radix not found")
	}
	if _, ok := ByName("doom"); ok {
		t.Error("unknown app found")
	}
	if len(Names()) != 10 {
		t.Error("Names() incomplete")
	}
}

func TestAllAppsGenerate(t *testing.T) {
	cfg := smallCfg()
	for _, app := range Catalog() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			w := app.Build(cfg)
			if w.Name != app.Name {
				t.Errorf("workload name %q != app name %q", w.Name, app.Name)
			}
			if len(w.Streams) != cfg.Nodes*cfg.CPUsPerNode {
				t.Fatalf("%d streams for %d CPUs", len(w.Streams), cfg.Nodes*cfg.CPUsPerNode)
			}
			if w.SharedPages <= 0 {
				t.Error("no pages allocated")
			}
			total := 0
			for _, s := range w.Streams {
				n := count(s)
				if n == 0 {
					t.Error("a CPU has an empty stream")
				}
				total += n
			}
			if total < 10000 {
				t.Errorf("only %d refs total; workload too small to be meaningful", total)
			}
			// Homes must be total over the allocated pages.
			for p := addr.PageNum(0); p < addr.PageNum(w.SharedPages); p++ {
				h := w.Homes(p)
				if int(h) < 0 || int(h) >= cfg.Nodes {
					t.Fatalf("page %d home %d out of range", p, h)
				}
			}
		})
	}
}

// TestRefsWithinAllocatedPages: every generated reference stays inside the
// allocated shared segment and block offsets are within the page.
func TestRefsWithinAllocatedPages(t *testing.T) {
	cfg := smallCfg()
	bpp := cfg.Geometry.BlocksPerPage()
	for _, app := range Catalog() {
		w := app.Build(cfg)
		for ci, s := range w.Streams {
			for {
				r, ok := s.Next()
				if !ok {
					break
				}
				if r.Barrier {
					continue
				}
				if int(r.Page) >= w.SharedPages {
					t.Fatalf("%s cpu %d: page %d beyond segment %d", app.Name, ci, r.Page, w.SharedPages)
				}
				if int(r.Off) >= bpp {
					t.Fatalf("%s cpu %d: offset %d beyond page (%d blocks)", app.Name, ci, r.Off, bpp)
				}
			}
		}
	}
}

// TestDeterministicGeneration: two builds of the same app yield identical
// streams.
func TestDeterministicGeneration(t *testing.T) {
	cfg := smallCfg()
	for _, app := range []string{"cholesky", "radix", "lu"} { // the shuffled ones
		a, _ := ByName(app)
		w1, w2 := a.Build(cfg), a.Build(cfg)
		for i := range w1.Streams {
			for {
				r1, ok1 := w1.Streams[i].Next()
				r2, ok2 := w2.Streams[i].Next()
				if ok1 != ok2 {
					t.Fatalf("%s cpu %d: stream lengths differ", app, i)
				}
				if !ok1 {
					break
				}
				if r1 != r2 {
					t.Fatalf("%s cpu %d: %+v != %+v", app, i, r1, r2)
				}
			}
		}
	}
}

// TestBarrierCountsUniform: every CPU sees the same number of barriers
// (the machine tolerates mismatches, but uniform counts keep phases
// aligned).
func TestBarrierCountsUniform(t *testing.T) {
	cfg := smallCfg()
	for _, app := range Catalog() {
		w := app.Build(cfg)
		want := -1
		for ci, s := range w.Streams {
			n := 0
			for {
				r, ok := s.Next()
				if !ok {
					break
				}
				if r.Barrier {
					n++
				}
			}
			if want == -1 {
				want = n
			} else if n != want {
				t.Errorf("%s: cpu %d has %d barriers, cpu 0 has %d", app.Name, ci, n, want)
			}
		}
	}
}

// count drains a stream and returns its length.
func count(s trace.Stream) int {
	n := 0
	for b := s.NextBatch(1024); len(b) > 0; b = s.NextBatch(1024) {
		n += len(b)
	}
	return n
}

// TestScaleChangesItersNotFootprint: scaling shrinks reference counts but
// not the shared segment (footprints drive cache fit).
func TestScaleChangesItersNotFootprint(t *testing.T) {
	a, _ := ByName("moldyn")
	small := a.Build(Config{Nodes: 8, CPUsPerNode: 4, Geometry: addr.Default, Scale: 0.3})
	big := a.Build(Config{Nodes: 8, CPUsPerNode: 4, Geometry: addr.Default, Scale: 1.0})
	if small.SharedPages != big.SharedPages {
		t.Errorf("scale changed footprint: %d vs %d pages", small.SharedPages, big.SharedPages)
	}
	ns, nb := 0, 0
	for _, s := range small.Streams {
		ns += count(s)
	}
	for _, s := range big.Streams {
		nb += count(s)
	}
	if ns >= nb {
		t.Errorf("scale did not shrink refs: %d vs %d", ns, nb)
	}
}

// TestRemoteFractionSanity: every app must reference remote pages (shared
// memory programs communicate).
func TestRemoteFractionSanity(t *testing.T) {
	cfg := smallCfg()
	for _, app := range Catalog() {
		w := app.Build(cfg)
		remote := 0
		total := 0
		for ci, s := range w.Streams {
			nodeID := addr.NodeID(ci / cfg.CPUsPerNode)
			for {
				r, ok := s.Next()
				if !ok {
					break
				}
				if r.Barrier {
					continue
				}
				total++
				if w.Homes(r.Page) != nodeID {
					remote++
				}
			}
		}
		frac := float64(remote) / float64(total)
		if frac < 0.005 || frac > 0.8 {
			t.Errorf("%s: remote fraction %.3f outside sane range", app.Name, frac)
		}
	}
}

func TestConfigIters(t *testing.T) {
	c := Config{Scale: 0.5}
	if c.iters(6) != 3 {
		t.Errorf("iters(6) at 0.5 = %d, want 3", c.iters(6))
	}
	if c.iters(2) != 2 {
		t.Errorf("iters floor broken: %d", c.iters(2))
	}
	c.Scale = 0
	if c.iters(4) != 4 {
		t.Errorf("zero scale should mean 1.0: %d", c.iters(4))
	}
}
