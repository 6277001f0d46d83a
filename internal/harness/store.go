package harness

import (
	"crypto/sha256"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"rnuma/internal/stats"
)

// This file defines the harness's result store: the singleflight memo
// that used to be a private cache map, factored behind an interface so
// results are shareable across harnesses (the server gives every job its
// own Harness — own Progress and Log writers — over one shared Store)
// and, with DiskStore, across process restarts.

// JobKey is the stable, serializable identity of one simulation: the
// workload identity (the source *content* key for registered sources, so
// memoization follows file content rather than file naming; the catalog
// application name otherwise), the whole system configuration but its
// name (sysKey), plus the harness knobs that change what a workload
// builder produces — seed and scale. Two jobs with equal keys are
// guaranteed to produce identical runs, which is what makes results
// cacheable across requests, across daemon restarts, and across
// processes sharing one store directory at different -scale settings.
type JobKey struct {
	App   string  `json:"app"`
	Sys   string  `json:"sys"`
	Seed  int64   `json:"seed,omitempty"`
	Scale float64 `json:"scale,omitempty"`
}

// String renders the key in the legacy memo-cache format; it is the
// canonical form stores index by.
func (k JobKey) String() string {
	s := k.App + "|" + k.Sys
	if k.Seed != 0 {
		s += fmt.Sprintf("|seed%d", k.Seed)
	}
	if k.Scale != 0 {
		s += "|x" + strconv.FormatFloat(k.Scale, 'g', -1, 64)
	}
	return s
}

// KeyFor resolves a job's store identity under this harness: the
// application-name component is replaced by the source's content key
// when the name resolves to a registered source, and the harness seed
// and scale ride along (so mutating either between runs — or pointing
// two daemons with different -scale at one store directory — cannot
// surface a result computed under different workload parameters).
func (h *Harness) KeyFor(j Job) JobKey {
	app := j.App
	if src := h.source(j.App); src != nil {
		app = src.Key()
	}
	return JobKey{App: app, Sys: sysKey(j.Sys), Seed: h.Seed, Scale: h.Scale}
}

// Store is a singleflight result store: exactly one simulation per key
// ever runs, even under concurrent requests from several harnesses.
//
// The contract: StartOrWait either returns a completed result
// (owner=false; run/err are the outcome) or claims the key and makes
// the caller the owner (owner=true), who MUST call Commit exactly once
// with the outcome —
// concurrent callers for the same key block until that Commit. Errors
// are results too: a failed simulation is not retried. Get peeks at
// completed entries without claiming or blocking, and Add inserts a
// pre-computed result if (and only if) the key is unclaimed — the fork
// engine uses it to donate sweep points without ever clobbering a
// result another path produced.
type Store interface {
	StartOrWait(key JobKey) (run *stats.Run, owner bool, err error)
	Commit(key JobKey, run *stats.Run, err error)
	Get(key JobKey) (run *stats.Run, ok bool, err error)
	Add(key JobKey, run *stats.Run) bool
	Stats() StoreStats
}

// StoreStats is a store's observability snapshot (the server reports it
// on /api/v1/store).
type StoreStats struct {
	// Entries is how many keys are resident (completed or in flight).
	Entries int `json:"entries"`
	// Started counts StartOrWait claims that made the caller the owner:
	// simulations actually begun.
	Started int64 `json:"started"`
	// Hits counts StartOrWait calls served by an existing slot, whether
	// already completed or by waiting on an in-flight owner.
	Hits int64 `json:"hits"`
	// DiskHits counts results loaded from a persistent tier (zero for
	// purely in-memory stores).
	DiskHits int64 `json:"diskHits"`
}

// memoEntry is one singleflight slot: the owner runs the simulation and
// closes done; concurrent requesters wait on done and read the shared
// result.
type memoEntry struct {
	done chan struct{}
	run  *stats.Run
	err  error
}

// MemoryStore is the in-process Store: the harness's original private
// memo cache behind the interface. Results are pointer-shared — every
// requester of a key sees the same *stats.Run.
type MemoryStore struct {
	mu      sync.Mutex
	entries map[string]*memoEntry
	stats   StoreStats
}

// NewMemoryStore builds an empty in-memory store.
func NewMemoryStore() *MemoryStore {
	return &MemoryStore{entries: make(map[string]*memoEntry)}
}

func (s *MemoryStore) StartOrWait(key JobKey) (*stats.Run, bool, error) {
	k := key.String()
	s.mu.Lock()
	if e, ok := s.entries[k]; ok {
		s.stats.Hits++
		s.mu.Unlock()
		<-e.done
		return e.run, false, e.err
	}
	e := &memoEntry{done: make(chan struct{})}
	s.entries[k] = e
	s.stats.Started++
	s.mu.Unlock()
	return nil, true, nil
}

func (s *MemoryStore) Commit(key JobKey, run *stats.Run, err error) {
	k := key.String()
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[k]
	if !ok {
		// Commit without a claim (not the harness's own usage, but legal
		// for warming a store out of band): insert completed.
		e = &memoEntry{done: make(chan struct{})}
		s.entries[k] = e
	}
	// The completed-check and close stay under s.mu so concurrent Commits
	// for one key are idempotent (first result wins) instead of racing to
	// a double close.
	select {
	case <-e.done: // already completed; first result wins
	default:
		e.run, e.err = run, err
		close(e.done)
	}
}

func (s *MemoryStore) Get(key JobKey) (*stats.Run, bool, error) {
	s.mu.Lock()
	e, ok := s.entries[key.String()]
	s.mu.Unlock()
	if !ok {
		return nil, false, nil
	}
	select {
	case <-e.done:
		return e.run, true, e.err
	default:
		return nil, false, nil
	}
}

func (s *MemoryStore) Add(key JobKey, run *stats.Run) bool {
	k := key.String()
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.entries[k]; ok {
		return false
	}
	e := &memoEntry{done: make(chan struct{}), run: run}
	close(e.done)
	s.entries[k] = e
	return true
}

func (s *MemoryStore) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.stats
	out.Entries = len(s.entries)
	return out
}

// ---------------------------------------------------------------------

// storeRecordVersion gates the on-disk encoding; bump it when the
// record layout (or anything reachable from stats.Run) changes shape,
// and files of another version degrade to misses instead of decoding
// garbage. gob drops a field the reader's type lacks without an error,
// so a clean decode proves nothing: a version-1 binary reads version
// 2's embedded telemetry.Counters as zero counters.
const storeRecordVersion = 2

// storeRecord is the on-disk form of one completed result.
type storeRecord struct {
	Version int
	Key     string // full JobKey.String(), verified on load
	Run     *stats.Run
}

// DiskStore is a Store whose successful results persist to a directory
// as GOB records, one file per key (named by the SHA-256 of the key
// string). In-flight singleflight coordination stays in memory — only
// completed successes touch disk — so a daemon restarted with the same
// -store-dir re-simulates nothing it already ran, while two daemons
// sharing a directory at worst duplicate work, never corrupt it
// (records land via atomic rename). Errors are cached in memory only:
// a crash-restart retries failed configurations. Unreadable or
// mismatched files degrade to cache misses.
type DiskStore struct {
	dir string
	mem *MemoryStore

	mu       sync.Mutex
	diskHits int64
	badSaves int64
}

// NewDiskStore opens (creating if needed) a persistent store rooted at
// dir.
func NewDiskStore(dir string) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("harness: store dir: %w", err)
	}
	return &DiskStore{dir: dir, mem: NewMemoryStore()}, nil
}

// path maps a key to its record file.
func (s *DiskStore) path(key JobKey) string {
	sum := sha256.Sum256([]byte(key.String()))
	return filepath.Join(s.dir, fmt.Sprintf("%x.run.gob", sum[:16]))
}

// load reads one record, returning ok=false on any miss, decode error,
// or key mismatch.
func (s *DiskStore) load(key JobKey) (*stats.Run, bool) {
	f, err := os.Open(s.path(key))
	if err != nil {
		return nil, false
	}
	defer f.Close()
	var rec storeRecord
	if err := gob.NewDecoder(f).Decode(&rec); err != nil {
		return nil, false
	}
	if rec.Version != storeRecordVersion || rec.Key != key.String() || rec.Run == nil {
		return nil, false
	}
	return rec.Run, true
}

// save writes one record via temp file + rename; failures are counted
// and swallowed (the store is a cache, not the system of record).
func (s *DiskStore) save(key JobKey, run *stats.Run) {
	err := func() error {
		f, err := os.CreateTemp(s.dir, ".tmp-*.gob")
		if err != nil {
			return err
		}
		defer os.Remove(f.Name())
		rec := storeRecord{Version: storeRecordVersion, Key: key.String(), Run: run}
		if err := gob.NewEncoder(f).Encode(&rec); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		return os.Rename(f.Name(), s.path(key))
	}()
	if err != nil {
		s.mu.Lock()
		s.badSaves++
		s.mu.Unlock()
	}
}

func (s *DiskStore) StartOrWait(key JobKey) (*stats.Run, bool, error) {
	run, owner, err := s.mem.StartOrWait(key)
	if !owner {
		return run, false, err
	}
	// Fresh claim: check the persistent tier before making the caller
	// simulate.
	if run, ok := s.load(key); ok {
		s.mem.Commit(key, run, nil)
		s.mu.Lock()
		s.diskHits++
		s.mu.Unlock()
		return run, false, nil
	}
	return nil, true, nil
}

func (s *DiskStore) Commit(key JobKey, run *stats.Run, err error) {
	if err == nil && run != nil {
		s.save(key, run)
	}
	s.mem.Commit(key, run, err)
}

func (s *DiskStore) Get(key JobKey) (*stats.Run, bool, error) {
	if run, ok, err := s.mem.Get(key); ok {
		return run, true, err
	}
	run, ok := s.load(key)
	if !ok {
		return nil, false, nil
	}
	s.mem.Add(key, run)
	s.mu.Lock()
	s.diskHits++
	s.mu.Unlock()
	return run, true, nil
}

func (s *DiskStore) Add(key JobKey, run *stats.Run) bool {
	if s.mem.Add(key, run) {
		s.save(key, run)
		return true
	}
	return false
}

func (s *DiskStore) Stats() StoreStats {
	out := s.mem.Stats()
	s.mu.Lock()
	out.DiskHits = s.diskHits
	s.mu.Unlock()
	return out
}
