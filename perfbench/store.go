package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"rnuma/internal/harness"
	"rnuma/internal/stats"
)

// countingStore wraps a harness.Store to observe, from outside the
// harness, every simulation a run executes: a StartOrWait that makes
// the caller the owner starts a simulation and its Commit ends it, on
// the same goroutine (harness.runJob). The wrapper times each one — a
// job, in the eval and em3d_grid workloads — in wall time and in the CPU
// time of its thread (the goroutine is locked to its thread for the
// duration), sums the references of every result the run produced —
// committed simulations and the fork engine's donated threshold points —
// and emits a harness.simulate span per simulation when tracing.
//
// This is where refs_per_cpu_s comes from. The harness's own -progress
// line is not used: it adds the references of store hits too, so
// per-figure Prefetch calls over a warm store report absurd rates (see
// README.md).
type countingStore struct {
	harness.Store

	tr     *tracer
	parent func() int // span to hang simulations under

	mu      sync.Mutex
	started map[string]claim
	jobs    []time.Duration // wall, claim to commit
	jobCPU  []time.Duration // thread CPU, claim to commit
	refs    int64
	sims    int64
	failed  int64
	donated int64
	last    time.Time // when the latest result landed
}

// claim is an owned simulation in flight.
type claim struct {
	start time.Time
	cpu   time.Duration
}

func newCountingStore(inner harness.Store, tr *tracer, parent func() int) *countingStore {
	return &countingStore{Store: inner, tr: tr, parent: parent, started: make(map[string]claim)}
}

func (s *countingStore) StartOrWait(key harness.JobKey) (*stats.Run, bool, error) {
	run, owner, err := s.Store.StartOrWait(key)
	if owner {
		runtime.LockOSThread()
		c := claim{start: time.Now(), cpu: threadCPU()}
		s.mu.Lock()
		s.started[key.String()] = c
		s.mu.Unlock()
	}
	return run, owner, err
}

func (s *countingStore) Commit(key harness.JobKey, run *stats.Run, err error) {
	now, cpu := time.Now(), threadCPU()
	s.mu.Lock()
	k := key.String()
	if c, ok := s.started[k]; ok {
		runtime.UnlockOSThread()
		delete(s.started, k)
		s.jobs = append(s.jobs, now.Sub(c.start))
		s.jobCPU = append(s.jobCPU, cpu-c.cpu)
		s.sims++
		if err != nil {
			s.failed++
		}
		if run != nil {
			s.refs += run.Refs
		}
		s.last = now
		if s.tr != nil {
			s.tr.record("harness.simulate", s.parent(), c.start, now)
		}
	}
	s.mu.Unlock()
	s.Store.Commit(key, run, err)
}

func (s *countingStore) Add(key harness.JobKey, run *stats.Run) bool {
	ok := s.Store.Add(key, run)
	if ok && run != nil {
		s.mu.Lock()
		s.refs += run.Refs
		s.donated++
		s.last = time.Now()
		s.mu.Unlock()
	}
	return ok
}

// Linux's CPU-time clocks. They read the scheduler's nanosecond
// accounting; getrusage's per-thread figures advance in clock ticks
// (4 ms on the reference machine), several percent of a short
// simulation.
const (
	clockProcessCPUTime = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPUTime  = 3 // CLOCK_THREAD_CPUTIME_ID
)

// cpuClock reads one of the CPU-time clocks.
func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// threadCPU is the calling thread's user+system CPU time.
func threadCPU() time.Duration { return cpuClock(clockThreadCPUTime) }
