package harness

import (
	"bytes"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"rnuma/internal/config"
	"rnuma/internal/stats"
	"rnuma/internal/telemetry"
	"rnuma/internal/tracefile"
	"rnuma/internal/workloads"
)

func testKey(app string) JobKey {
	return JobKey{App: app, Sys: sysKey(config.Base(config.RNUMA))}
}

func testRun(exec int64) *stats.Run {
	r := stats.NewRun()
	r.ExecCycles = exec
	r.Refs = exec * 2
	r.RefetchByPage[stats.PageKey{Node: 1, Page: 7}] = 3
	r.PerNodeReplacements[2] = 5
	return r
}

// TestJobKeyString pins the legacy memo-key format the stores index by
// (DiskStore records carry it verbatim, so it is an on-disk format too).
func TestJobKeyString(t *testing.T) {
	for _, tc := range []struct {
		key  JobKey
		want string
	}{
		{JobKey{App: "fft", Sys: "s"}, "fft|s"},
		{JobKey{App: "fft", Sys: "s", Seed: 7}, "fft|s|seed7"},
		{JobKey{App: "fft", Sys: "s", Scale: 0.05}, "fft|s|x0.05"},
		{JobKey{App: "fft", Sys: "s", Scale: 1}, "fft|s|x1"},
		{JobKey{App: "fft", Sys: "s", Seed: 7, Scale: 0.25}, "fft|s|seed7|x0.25"},
	} {
		if got := tc.key.String(); got != tc.want {
			t.Errorf("%+v.String() = %q, want %q", tc.key, got, tc.want)
		}
	}
}

// TestMemoryStoreSingleflight submits one key from many goroutines:
// exactly one caller becomes the owner, everyone else blocks until the
// commit and reads the same pointer-shared result.
func TestMemoryStoreSingleflight(t *testing.T) {
	s := NewMemoryStore()
	key := testKey("fft")
	want := testRun(100)

	const n = 16
	var owners int
	var mu sync.Mutex
	var wg sync.WaitGroup
	runs := make([]*stats.Run, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			run, owner, err := s.StartOrWait(key)
			if owner {
				mu.Lock()
				owners++
				mu.Unlock()
				s.Commit(key, want, nil)
				run = want
			}
			if err != nil {
				t.Errorf("StartOrWait: %v", err)
			}
			runs[i] = run
		}(i)
	}
	wg.Wait()
	if owners != 1 {
		t.Fatalf("owners = %d, want exactly 1", owners)
	}
	for i, r := range runs {
		if r != want {
			t.Errorf("caller %d got %p, want the shared %p", i, r, want)
		}
	}
	st := s.Stats()
	if st.Started != 1 || st.Hits != n-1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want started=1 hits=%d entries=1", st, n-1)
	}
}

// TestMemoryStoreCommitIdempotent: the doc permits Commit without a
// claim, so two concurrent Commits for one key must resolve to one
// result (first wins) instead of racing to a double close.
func TestMemoryStoreCommitIdempotent(t *testing.T) {
	s := NewMemoryStore()
	key := testKey("fft")
	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.Commit(key, testRun(int64(i+1)), nil)
		}(i)
	}
	wg.Wait()
	run, ok, err := s.Get(key)
	if !ok || err != nil || run == nil {
		t.Fatalf("Get after concurrent commits = %v, %v, %v", run, ok, err)
	}
}

// TestScaleSeparatesKeys: Scale changes what a workload builder produces
// (iteration counts), so harnesses at different scales sharing one store
// must not share results.
func TestScaleSeparatesKeys(t *testing.T) {
	store := NewMemoryStore()
	sys := config.Base(config.RNUMA)

	h1 := New(0.05)
	h1.Store = store
	if _, err := h1.Run("fft", sys); err != nil {
		t.Fatal(err)
	}
	h2 := New(0.1)
	h2.Store = store
	if _, err := h2.Run("fft", sys); err != nil {
		t.Fatal(err)
	}
	if got := h2.Simulations(); got != 1 {
		t.Errorf("second harness at a different scale ran %d simulations, want 1 (no cross-scale hit)", got)
	}
	if k1, k2 := h1.KeyFor(NewJob("fft", sys)), h2.KeyFor(NewJob("fft", sys)); k1 == k2 {
		t.Errorf("keys at scales 0.05 and 0.1 collide: %s", k1)
	}
}

// panicSource is a Source whose Load panics, standing in for any bug
// inside a simulation.
type panicSource struct{}

func (panicSource) Name() string { return "panic-src" }
func (panicSource) Key() string  { return "panic-src:deadbeef" }
func (panicSource) Load(workloads.Config) (*workloads.Workload, error) {
	panic("boom in Load")
}

// TestRunJobPanicResolvesClaim: a panic inside a simulation must still
// commit the store claim, so waiters on the same key get an error
// instead of blocking forever, and the panic still reaches the caller.
func TestRunJobPanicResolvesClaim(t *testing.T) {
	h := New(0.05)
	if _, err := h.register(panicSource{}); err != nil {
		t.Fatal(err)
	}
	sys := config.Base(config.RNUMA)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic did not propagate out of Run")
			}
		}()
		h.Run("panic-src", sys) //nolint:errcheck // must panic
	}()
	// The claim resolved: a retry is served the cached error, not a hang.
	if _, err := h.Run("panic-src", sys); err == nil {
		t.Error("second Run after a panicked owner returned no error")
	}
}

// TestMemoryStoreErrorCached: a failed simulation is a result too — the
// key is not retried.
func TestMemoryStoreErrorCached(t *testing.T) {
	s := NewMemoryStore()
	key := testKey("bad")
	boom := errors.New("boom")
	if _, owner, _ := s.StartOrWait(key); !owner {
		t.Fatal("first StartOrWait should own")
	}
	s.Commit(key, nil, boom)
	run, owner, err := s.StartOrWait(key)
	if owner || run != nil || !errors.Is(err, boom) {
		t.Errorf("after failed commit: run=%v owner=%v err=%v, want cached error", run, owner, err)
	}
}

// TestMemoryStoreAddAndGet: Add inserts only into unclaimed slots (the
// fork engine's donation path must never clobber a result), and Get
// peeks without claiming.
func TestMemoryStoreAddAndGet(t *testing.T) {
	s := NewMemoryStore()
	key := testKey("fft")
	if _, ok, _ := s.Get(key); ok {
		t.Fatal("Get on empty store reported a hit")
	}
	r1 := testRun(1)
	if !s.Add(key, r1) {
		t.Fatal("Add into empty slot failed")
	}
	if s.Add(key, testRun(2)) {
		t.Fatal("second Add clobbered a completed slot")
	}
	run, ok, err := s.Get(key)
	if !ok || err != nil || run != r1 {
		t.Errorf("Get = %p, %v, %v; want the added run", run, ok, err)
	}
	// An in-flight claim must also block Add.
	key2 := testKey("other")
	if _, owner, _ := s.StartOrWait(key2); !owner {
		t.Fatal("claim failed")
	}
	if s.Add(key2, testRun(3)) {
		t.Error("Add filled a claimed slot")
	}
	if _, ok, _ := s.Get(key2); ok {
		t.Error("Get reported an in-flight entry as complete")
	}
}

// TestDiskStoreRestart is the persistence round trip: a result committed
// through one DiskStore is served — with identical contents — by a fresh
// store on the same directory, without making the caller an owner.
func TestDiskStoreRestart(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("fft")
	want := testRun(42)
	if _, owner, _ := s1.StartOrWait(key); !owner {
		t.Fatal("fresh store should make the caller owner")
	}
	s1.Commit(key, want, nil)

	s2, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	run, owner, err := s2.StartOrWait(key)
	if owner {
		t.Fatal("restarted store re-simulated a persisted key")
	}
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(run, want) {
		t.Errorf("restored run differs:\n got %+v\nwant %+v", run, want)
	}
	if st := s2.Stats(); st.DiskHits != 1 {
		t.Errorf("DiskHits = %d, want 1", st.DiskHits)
	}
	// Get on a third store also falls through to disk.
	s3, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	run, ok, err := s3.Get(key)
	if !ok || err != nil || !reflect.DeepEqual(run, want) {
		t.Errorf("Get from disk = %v, %v, %v", run, ok, err)
	}
}

// TestDiskStoreErrorsNotPersisted: failed simulations stay memory-only,
// so a restart retries them.
func TestDiskStoreErrorsNotPersisted(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("bad")
	if _, owner, _ := s1.StartOrWait(key); !owner {
		t.Fatal("claim failed")
	}
	s1.Commit(key, nil, errors.New("boom"))

	s2, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, owner, _ := s2.StartOrWait(key); !owner {
		t.Error("restart did not retry a failed configuration")
	}
}

// TestDiskStoreCorruptRecord: an unreadable record degrades to a miss
// instead of an error or garbage.
func TestDiskStoreCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("fft")
	if _, owner, _ := s1.StartOrWait(key); !owner {
		t.Fatal("claim failed")
	}
	s1.Commit(key, testRun(7), nil)
	files, err := filepath.Glob(filepath.Join(dir, "*.run.gob"))
	if err != nil || len(files) != 1 {
		t.Fatalf("records on disk = %v, %v; want exactly one", files, err)
	}
	if err := os.WriteFile(files[0], []byte("not a gob record"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, owner, _ := s2.StartOrWait(key); !owner {
		t.Error("corrupt record should degrade to a miss (owner=true)")
	}
}

// TestDiskStoreOtherVersion: a record of another layout version is a
// miss, even when gob decodes it without an error, as it does both
// records here (a version-1 record declared the windowed counters on
// stats.Run itself). gob drops fields the reader's type lacks, so only
// the version tells a binary that a record's layout is not its own.
func TestDiskStoreOtherVersion(t *testing.T) {
	type flatRun struct{ ExecCycles, Refs int64 }
	type flatRecord struct {
		Version int
		Key     string
		Run     *flatRun
	}
	key := testKey("fft")
	for _, rec := range []any{
		flatRecord{Version: storeRecordVersion - 1, Key: key.String(), Run: &flatRun{ExecCycles: 10, Refs: 5}},
		storeRecord{Version: storeRecordVersion + 1, Key: key.String(), Run: testRun(10)},
	} {
		dir := t.TempDir()
		s, err := NewDiskStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(rec); err != nil {
			t.Fatal(err)
		}
		var decoded storeRecord
		if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&decoded); err != nil {
			t.Fatalf("%T: gob refused the record (%v); the version check would go untested", rec, err)
		}
		if err := os.WriteFile(s.path(key), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, owner, _ := s.StartOrWait(key); !owner {
			t.Errorf("record version %d served as a hit", decoded.Version)
		}
		if st := s.Stats(); st.DiskHits != 0 {
			t.Errorf("record version %d: DiskHits = %d, want 0", decoded.Version, st.DiskHits)
		}
	}
}

// TestSharedStoreAcrossHarnesses is the server's memoization model in
// miniature: two harnesses over one store, and only the first executes
// the simulation (Simulations counts a harness's own work).
func TestSharedStoreAcrossHarnesses(t *testing.T) {
	store := NewMemoryStore()
	sys := config.Base(config.RNUMA)

	h1 := New(0.05)
	h1.Store = store
	run1, err := h1.Run("fft", sys)
	if err != nil {
		t.Fatal(err)
	}
	if h1.Simulations() == 0 {
		t.Fatal("first harness reported no simulations")
	}

	h2 := New(0.05)
	h2.Store = store
	run2, err := h2.Run("fft", sys)
	if err != nil {
		t.Fatal(err)
	}
	if run2 != run1 {
		t.Error("shared store did not pointer-share the result")
	}
	if got := h2.Simulations(); got != 0 {
		t.Errorf("second harness executed %d simulations, want 0 (store hit)", got)
	}
}

// TestReplayOptions covers the option plumbing of the one-shot Replay
// surface.
func TestReplayOptions(t *testing.T) {
	app, _ := workloads.ByName("fft")
	cfg := workloads.DefaultConfig()
	cfg.Scale = 0.05
	var buf bytes.Buffer
	if _, _, err := tracefile.WriteWorkload(&buf, app.Build(cfg), cfg); err != nil {
		t.Fatal(err)
	}
	sys := config.Base(config.RNUMA)

	res, err := Replay(bytes.NewReader(buf.Bytes()), sys)
	if err != nil {
		t.Fatal(err)
	}
	if res.Run.ExecCycles == 0 || res.Header.Name != "fft" {
		t.Errorf("replay: exec=%d header=%+v", res.Run.ExecCycles, res.Header)
	}

	// A probe rides along on one-shot replays without changing the run.
	probed, err := Replay(bytes.NewReader(buf.Bytes()), sys, WithTelemetry(telemetry.Config{Window: 4096}))
	if err != nil {
		t.Fatal(err)
	}
	if probed.Run.Timeline == nil || probed.Run.ExecCycles != res.Run.ExecCycles {
		t.Errorf("probed replay: timeline %v, exec %d vs %d", probed.Run.Timeline != nil, probed.Run.ExecCycles, res.Run.ExecCycles)
	}

	// Every system field reaches the fork engine: a naive-counting
	// threshold sweep matches the plain naive-counting replay.
	naive := sys
	naive.NaiveCounting = true
	want, err := Replay(bytes.NewReader(buf.Bytes()), naive)
	if err != nil {
		t.Fatal(err)
	}
	forked, err := Replay(bytes.NewReader(buf.Bytes()), naive, WithThresholds(8, sys.Threshold))
	if err != nil {
		t.Fatal(err)
	}
	if len(forked.ByThreshold) != 2 || forked.Run != forked.ByThreshold[sys.Threshold] {
		t.Fatalf("forked replay: %d thresholds, Run is not the largest's", len(forked.ByThreshold))
	}
	if !reflect.DeepEqual(want.Run, forked.Run) {
		t.Error("the naive-counting fork differs from the plain naive-counting replay")
	}

	// Placement follows the system on both paths: without first touch a
	// replay homes pages round-robin, as the harness job of that system
	// does.
	rr := sys
	rr.FirstTouch = false
	want, err = Replay(bytes.NewReader(buf.Bytes()), rr)
	if err != nil {
		t.Fatal(err)
	}
	h := New(1)
	src, err := h.Load(KindTrace, buf.Bytes(), "", "", rr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.Run(src.Name(), rr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Run, got) || want.Run.RemoteFetches == res.Run.RemoteFetches {
		t.Errorf("round-robin replay: %d remote fetches, harness job %d, first touch %d",
			want.Run.RemoteFetches, got.RemoteFetches, res.Run.RemoteFetches)
	}
}

// TestRenamedSource: loading under a name changes the registration name
// but not the content key, so renamed registrations of one capture share
// results.
func TestRenamedSource(t *testing.T) {
	app, _ := workloads.ByName("fft")
	cfg := workloads.DefaultConfig()
	cfg.Scale = 0.05
	var buf bytes.Buffer
	if _, _, err := tracefile.WriteWorkload(&buf, app.Build(cfg), cfg); err != nil {
		t.Fatal(err)
	}
	h := New(0.05)
	src := load(t, h, KindTrace, buf.Bytes())
	renamed, err := h.Load(KindTrace, buf.Bytes(), "fft@cafe1234", "", config.System{})
	if err != nil {
		t.Fatal(err)
	}
	if renamed.Name() != "fft@cafe1234" {
		t.Errorf("Name() = %q", renamed.Name())
	}
	if renamed.Key() != src.Key() {
		t.Errorf("rename changed the content key: %q vs %q", renamed.Key(), src.Key())
	}
	sys := config.Base(config.RNUMA)
	r1, err := h.Run(src.Name(), sys)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := h.Run(renamed.Name(), sys)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("renamed registration did not share the stored result")
	}
}

// TestDiskStoreAdd: the donation path persists like a commit.
func TestDiskStoreAdd(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("fft")
	want := testRun(9)
	if !s1.Add(key, want) {
		t.Fatal("Add into empty disk store failed")
	}
	if s1.Add(key, testRun(10)) {
		t.Fatal("second Add clobbered the slot")
	}
	s2, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	run, ok, err := s2.Get(key)
	if !ok || err != nil || !reflect.DeepEqual(run, want) {
		t.Errorf("donated run not persisted: %v, %v, %v", run, ok, err)
	}
}
