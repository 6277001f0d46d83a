package harness

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"rnuma/internal/config"
	"rnuma/internal/stats"
)

// The JobKey fixture pins the store key of every job that sweeps and
// grids of the committed CI capture ask for, derived on a cold trace
// memo. A key that moved would orphan every result a -store-dir holds
// under the old one, so the fixture is re-baselined only explicitly:
//
//	go test ./internal/harness -run TestJobKeysStable -update

// jobKeyFixture lists the keys, one per line, sorted.
var jobKeyFixture = filepath.Join("testdata", "jobkeys.txt")

// keyStore is a Store that holds every key already: it records each key
// asked for and answers it with one finished run, so a study resolves
// every job's key and simulates nothing.
type keyStore struct {
	mu   sync.Mutex
	keys map[string]bool
	run  *stats.Run
}

func newKeyStore() *keyStore {
	return &keyStore{keys: make(map[string]bool), run: &stats.Run{ExecCycles: 1}}
}

func (s *keyStore) see(k JobKey) *stats.Run {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.keys[k.String()] = true
	return s.run
}

func (s *keyStore) StartOrWait(k JobKey) (*stats.Run, bool, error) { return s.see(k), false, nil }
func (s *keyStore) Commit(k JobKey, _ *stats.Run, _ error)         { s.see(k) }
func (s *keyStore) Get(k JobKey) (*stats.Run, bool, error)         { return s.see(k), true, nil }
func (s *keyStore) Add(k JobKey, _ *stats.Run) bool                { s.see(k); return false }
func (s *keyStore) Stats() StoreStats                              { return StoreStats{} }

// TestJobKeysStable sweeps the CI capture on all five axes at the CLI's
// default values and runs block x dilate, nodes x page and block x
// threshold grids, each on a cold memo so that every variant's key is
// derived from the capture, then loads the example specs and scenarios
// and the capture itself, and compares the keys asked for with the
// fixture.
func TestJobKeysStable(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "ci", "fft.trace"))
	if err != nil {
		t.Fatal(err)
	}
	vals := func(axis Axis, csv string) []SweepValue {
		v, err := ParseSweepValues(axis, csv)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	store := newKeyStore()
	sweeps := []struct {
		axis Axis
		csv  string
	}{
		{AxisNodes, "4,8,16"},
		{AxisDilate, "1/2,1,2,4"},
		{AxisBlockSize, "16,32,64,128"},
		{AxisPageSize, "2048,4096,8192"},
		{AxisThreshold, "16,64,256,1024"},
	}
	for _, s := range sweeps {
		isolateMemo(t)
		h := New(1.0)
		h.Store = store
		if _, _, err := h.Sweep(data, s.axis, vals(s.axis, s.csv)); err != nil {
			t.Fatalf("%s sweep: %v", s.axis, err)
		}
	}
	grids := []struct {
		x, y       Axis
		xcsv, ycsv string
	}{
		{AxisBlockSize, AxisDilate, "16,32", "1/2,2"},
		{AxisNodes, AxisPageSize, "4,16", "2048,8192"},
		{AxisBlockSize, AxisThreshold, "16,32,64", "16,64"},
	}
	for _, g := range grids {
		isolateMemo(t)
		h := New(1.0)
		h.Store = store
		if _, err := h.SweepGrid(data, g.x, vals(g.x, g.xcsv), g.y, vals(g.y, g.ycsv)); err != nil {
			t.Fatalf("%s x %s grid: %v", g.x, g.y, err)
		}
	}
	// Registered sources: both example specs, both example scenarios
	// compiled at the 8x4 base shape and scale 0.05, and the capture
	// under its embedded name.
	isolateMemo(t)
	h := New(0.05)
	h.Store = store
	root := filepath.Join("..", "..")
	var names []string
	for _, in := range []struct{ kind, path string }{
		{KindSpec, "examples/specs/halo.json"},
		{KindSpec, "examples/specs/hotcold.json"},
		{KindTraffic, "examples/scenarios/burst-collision.json"},
		{KindTraffic, "examples/scenarios/steady-mix.json"},
		{KindTrace, "testdata/ci/fft.trace"},
	} {
		path := filepath.Join(root, in.path)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		src, err := h.Load(in.kind, data, "", filepath.Dir(path), config.Base(config.RNUMA))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		names = append(names, src.Name())
	}
	for _, name := range names {
		if _, err := h.Run(name, config.Base(config.RNUMA)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	got := make([]string, 0, len(store.keys))
	for k := range store.keys {
		got = append(got, k)
	}
	sort.Strings(got)
	text := strings.Join(got, "\n") + "\n"
	if *update {
		if err := os.WriteFile(jobKeyFixture, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(jobKeyFixture)
	if err != nil {
		t.Fatalf("missing fixture (regenerate with -update): %v", err)
	}
	if text == string(want) {
		return
	}
	wantKeys := make(map[string]bool)
	for _, k := range strings.Split(strings.TrimSpace(string(want)), "\n") {
		wantKeys[k] = true
	}
	for _, k := range got {
		if !wantKeys[k] {
			t.Errorf("new key %s", k)
		}
		delete(wantKeys, k)
	}
	for k := range wantKeys {
		t.Errorf("missing key %s", k)
	}
	t.Error("JobKeys moved; if that is intended, re-baseline with: go test ./internal/harness -run TestJobKeysStable -update")
}
