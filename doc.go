// Package rnuma is a Go reproduction of "Reactive NUMA: A Design for
// Unifying S-COMA and CC-NUMA" (Falsafi & Wood, ISCA 1997).
//
// The library simulates a distributed shared-memory cluster of SMP nodes
// with three remote-data caching designs — CC-NUMA (a per-node SRAM block
// cache), S-COMA (a main-memory page cache with fine-grain access control
// tags), and the paper's contribution, Reactive NUMA, which starts every
// remote page in CC-NUMA mode, counts per-page capacity/conflict refetches
// at the directory, and relocates pages that cross a threshold into the
// S-COMA page cache.
//
// Packages:
//
//   - internal/machine — the whole-machine discrete-event simulator
//   - internal/core — R-NUMA's reactive refetch counters
//   - internal/directory — the full-map coherence directory with refetch
//     detection
//   - internal/cache, internal/blockcache, internal/pagecache — the
//     storage hierarchy
//   - internal/workloads — declarative JSON workload specs (new
//     scenarios without code changes, including per-phase node subsets
//     and zipf/explicit page-popularity distributions) and the paper's
//     ten applications (Table 3) as ten embedded specs
//   - internal/traffic — open-loop multi-tenant traffic scenarios
//     layered on specs: named clients with rate fractions, deterministic
//     arrival processes (poisson/gamma/weibull), time-varying load
//     shapes, and an arrival-time merge into one replayable workload
//     with per-record client attribution (per-tenant stats/telemetry);
//     Compile returns that workload and the digest of the phase files it
//     read, which PhaseDigest computes without compiling
//   - internal/tracefile — the binary trace capture/replay format
//     (a streaming writer of one encoding, v2 with seeded chunks DEFLATEd
//     where that shrinks them; a lazy demuxing reader of v1 and v2 whose
//     seeks skip whole seeded chunks undecoded; a bounded Decode into
//     per-CPU reference slices for in-memory replay; the canonical
//     content hash over an encoding or over decoded streams, Cut/Cat
//     splicing, and the transform layer: Retarget onto a different
//     machine shape under pluggable page-remapping policies and CPU
//     fold policies (modulo or weighted interleave), RetargetGeometry
//     re-splitting every address onto a different block/page geometry,
//     Dilate of compute gaps by a rational factor, each a pure Map over
//     the header, and Diff reporting the first diverging CPU/record
//     plus a per-CPU summary)
//   - internal/tracefile/snapfile — the RNSS checkpoint file format for
//     machine snapshots (versioned gob payload, CRC-32C, strict
//     truncation/corruption rejection) behind rnuma-trace snapshot and
//     resume; a checkpoint lists the page-cache frames a run created, so
//     its size does not follow the configured capacity
//   - internal/stats — the per-run counter set, plus Diff: the
//     per-counter delta table (absolute + relative + refetch-map
//     digest) between two runs that rnuma-trace diffstats and
//     rnuma-serve diffstats jobs render, and its Tolerance classification
//     (timing counters may drift within a band, structural counters
//     must match exactly) behind diffstats -tol
//   - internal/telemetry — the reference-windowed sampling probe: every
//     N references it emits the windowed counter deltas as an interval
//     series, a per-window node-to-node remote-fetch traffic matrix,
//     and a log of relocation events; off by default, free when off,
//     and schedule-independent — serial, parallel, trunk-and-fork, and
//     snapshot-resumed replays produce bit-identical timelines because
//     checkpoints carry the probe cursor
//   - internal/profiling — -cpuprofile/-memprofile plumbing for
//     rnuma-trace replay
//   - internal/harness — the experiment-plan layer and concurrent
//     scheduler that regenerate every table and figure; one loader
//     (Harness.Load) turns an input's bytes (a recorded trace, a spec or
//     a traffic scenario; the kind is named or sniffed) into a workload
//     source registered under its embedded name or a given one; a
//     trace's memo key hashes the decoded streams (CanonicalHash), so
//     re-encodings of one capture share simulations, and every trace,
//     -traces rows included, is decoded once per harness, charged to its
//     decode cap, past which it streams from its bytes; Sweep transforms
//     one capture along a parameter axis (nodes, dilate factor, block
//     size, page size, relocation threshold) to replay a whole
//     sensitivity study from a single recording; a threshold line
//     replays the trace once on a trunk machine and forks each point
//     from a mid-run snapshot at the last threshold-independent
//     reference, producing runs bit-identical to independent replays at
//     a fraction of the wall-clock; SweepGrid runs that same line once
//     per value of a second axis, through the same plan and cell
//     assembly, so its rows and columns are bit-identical to the
//     one-axis sweeps, and
//     FindKnee locates where on a grid line the R-NUMA-over-best ratio
//     first exceeds a bound; a bounded, in-memory trace memo maps each
//     input's SHA-256 plus the transforms applied to it (a traffic
//     scenario's plus its phase files' digest and the machine it compiles
//     for) to the content key, so resubmitted sweeps, grids and replays
//     learn every store key without decoding or compiling; a job decodes
//     only its capture, at most once (up to a per-harness cap; past it
//     the capture streams), and reads each sweep or grid variant from
//     that decode through the transforms' Maps (X before Y), never
//     encoding or decoding a variant; a scenario is a capture whose one
//     decode is its compile; keys, simulations, fork trunks and forks
//     all read it through fresh cursors
//   - internal/serve — the long-running experiment service behind
//     cmd/rnuma-serve: content-addressed artifact uploads (traces,
//     specs, traffic scenarios), replay/sweep/grid/diffstats/
//     experiments jobs with streamed progress, and text or JSON
//     reports; uploads are checked by harness.Inspect and jobs load
//     them through Harness.Load; requests resolve at submission, so
//     unknown systems, figures or applications, malformed axis/value
//     lists, points the trace rejects, traces whose nodes do not
//     divide their CPUs and scenarios whose phase files cannot be read
//     answer 422 naming the offending value; every job runs on its own
//     harness over the server's one shared result store, so repeated and
//     concurrent submissions re-simulate nothing, and through the
//     harness's trace memo a warm resubmission decodes and compiles
//     nothing; Execute, the job executor, also runs rnuma-experiments'
//     figures, sweeps and grids and rnuma-trace replay, so served and
//     offline reports agree byte for byte
//   - internal/model — the analytical worst-case model (Section 3.2)
//
// The harness declares each figure's (application, system) grid as a Plan
// of Jobs, deduplicates shared configurations (every figure divides by the
// same ideal baseline), and executes the plan across a worker pool bounded
// by Harness.Workers (default GOMAXPROCS; the tools expose it as
// -parallel). Results land in a pluggable singleflight store
// (Harness.Store — in-memory by default, persisted across processes by
// NewDiskStore) under a key that covers the workload's content, the
// whole config.System but its display name, and the harness seed and
// scale, so the ablations (naive counting, LRU replacement,
// round-robin homes) are ordinary systems, and concurrent
// requests for one configuration simulate exactly once and figure assembly
// — always serial — produces output byte-identical to a serial run. The
// pool, at one worker too, takes a plan's jobs grouped by application and
// builds each catalog workload once for all of that application's
// simulations, which replay its read-only reference slices through
// cursors of their own. Each
// simulation owns a fresh Machine whose hot state (page homes, sharing
// flags, page tables, refetch counters, the directory's block index, the
// ideal baseline's infinite block cache) lives in dense page- and
// block-indexed slices, keeping map hashing off the per-reference path and
// mutable state off the shared heap, and its page-cache frames are created
// on first use, so memory follows the pages a run caches rather than the
// configured capacity; its event queue is a tournament
// tree with one fixed leaf per CPU, whose root key names the next CPU to
// run. Each CPU reads its references in place from a buffer the machine
// owns, refilled a batch at a time by one copy from the CPU's stream.
//
// The benchmarks in bench_test.go regenerate each table/figure; see
// EXPERIMENTS.md for paper-versus-measured results and README.md for a
// walkthrough.
package rnuma
