package traffic

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"rnuma/internal/addr"
	"rnuma/internal/config"
	"rnuma/internal/machine"
	"rnuma/internal/stats"
	"rnuma/internal/telemetry"
	"rnuma/internal/trace"
	"rnuma/internal/tracefile"
	"rnuma/internal/workloads"
)

// miniSpec is a small declarative workload the traffic tests reference as
// a phase: it touches remote pages (neighbor sweep + global table), so
// compiled scenarios exercise the full protocol machinery.
const miniSpec = `{
  "name": "mini",
  "regions": [
    {"name": "pool", "pages": 8, "placement": "node"},
    {"name": "table", "pages": 4, "placement": "global"}
  ],
  "phases": [
    {"iters": 2, "steps": [
      {"op": "rewrite", "region": "pool", "density": 4},
      {"op": "sweep", "region": "pool", "from": "neighbor:1", "density": 4, "gap": 10},
      {"op": "shared", "region": "table", "density": 2},
      {"op": "barrier"}
    ]}
  ]
}`

// writeMini drops the mini workload spec in a temp dir and returns the dir.
func writeMini(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "mini.json"), []byte(miniSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func testCfg() workloads.Config {
	return workloads.Config{Nodes: 4, CPUsPerNode: 2, Geometry: addr.Default, Scale: 0.05}
}

// twoClients is a bursty/steady mix over the mini workload.
func twoClients() *Spec {
	return &Spec{
		Name: "mix",
		Clients: []Client{
			{Name: "steady", RateFraction: 0.6,
				Arrival: Arrival{Process: "poisson"},
				Phases:  []PhaseRef{{Spec: "mini.json"}}},
			{Name: "bursty", RateFraction: 0.4,
				Arrival: Arrival{Process: "gamma", CV: 4},
				Load:    &LoadShape{Period: &Period{Amplitude: 0.8, Cycles: 2}},
				Phases:  []PhaseRef{{Spec: "mini.json"}}},
		},
	}
}

// compile compiles s for cfg with its phases under dir.
func compile(t *testing.T, s *Spec, cfg workloads.Config, dir string) *workloads.Workload {
	t.Helper()
	w, _, err := Compile(s, cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// refsOf drains a fresh copy of w's streams.
func refsOf(w *workloads.Workload) [][]trace.Ref {
	w = w.Fresh()
	out := make([][]trace.Ref, len(w.Streams))
	for cpu, s := range w.Streams {
		for r, ok := s.Next(); ok; r, ok = s.Next() {
			out[cpu] = append(out[cpu], r)
		}
	}
	return out
}

// records counts w's records, barriers included.
func records(w *workloads.Workload) (n int64) {
	for _, lane := range refsOf(w) {
		n += int64(len(lane))
	}
	return n
}

func TestCompileDeterministic(t *testing.T) {
	dir := writeMini(t)
	cfg := testCfg()
	var bufs [2]bytes.Buffer
	var hashes [2][32]byte
	for i := range bufs {
		if _, _, err := tracefile.WriteWorkload(&bufs[i], compile(t, twoClients(), cfg, dir), cfg); err != nil {
			t.Fatal(err)
		}
		sum, _, err := tracefile.CanonicalHash(bytes.NewReader(bufs[i].Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		hashes[i] = sum
	}
	if !bytes.Equal(bufs[0].Bytes(), bufs[1].Bytes()) {
		t.Error("two compilations of the same spec encode differently")
	}
	if hashes[0] != hashes[1] {
		t.Error("canonical hashes differ across compilations")
	}
}

// TestClientLanesStableUnderClientSetChange pins the arrival-RNG
// derivation contract: a client's stamped, client-locally-numbered lanes
// depend only on (spec seed, client name, machine config) — adding
// another client ahead of it, which moves its index, must leave them
// bit-identical.
func TestClientLanesStableUnderClientSetChange(t *testing.T) {
	dir := writeMini(t)
	cfg := testCfg()
	withExtra := twoClients()
	withExtra.Clients = append([]Client{{
		Name: "extra", RateFraction: 0.3,
		Arrival: Arrival{Process: "weibull", Shape: 0.7},
		Phases:  []PhaseRef{{Spec: "mini.json"}},
	}}, withExtra.Clients...)
	var lanes [2]map[string]clientLanes
	var merged [2][][]trace.Ref
	for i, s := range []*Spec{twoClients(), withExtra} {
		cls, err := compileClients(s, cfg, dir, sha256.New())
		if err != nil {
			t.Fatal(err)
		}
		lanes[i] = make(map[string]clientLanes)
		for _, cl := range cls {
			lanes[i][cl.name] = cl
		}
		merged[i] = refsOf(merge(s.Name, cls, cfg))
	}
	if len(lanes[1]) != 3 {
		t.Fatalf("three-client spec compiled %d clients", len(lanes[1]))
	}
	for _, name := range []string{"steady", "bursty"} {
		if a, ok := lanes[0][name]; !ok || !reflect.DeepEqual(a, lanes[1][name]) {
			t.Errorf("client %q: lanes changed when another client was added", name)
		}
	}
	// The merged streams DO change (page bases shift, interleaving
	// changes) — assert so, to keep this test honest about what it pins.
	if reflect.DeepEqual(merged[0], merged[1]) {
		t.Error("merged streams unexpectedly identical despite an added client")
	}
}

// TestClientStatsSumToRun pins the attribution exactness contract: the
// per-client counters must sum exactly to the machine-level run, for
// every windowed counter, and the per-interval splits must sum to each
// interval's delta.
func TestClientStatsSumToRun(t *testing.T) {
	dir := writeMini(t)
	cfg := testCfg()
	w := compile(t, twoClients(), cfg, dir)
	sys := config.Base(config.RNUMA)
	sys.Geometry = cfg.Geometry
	sys.Nodes = cfg.Nodes
	sys.CPUsPerNode = cfg.CPUsPerNode
	m, err := machine.New(sys,
		machine.WithHomes(w.Homes), machine.WithPages(w.SharedPages),
		machine.WithAttribution(w.Attribution),
		machine.WithTelemetry(telemetry.Config{Window: 2048}))
	if err != nil {
		t.Fatal(err)
	}
	run, err := m.Run(w.Streams)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Clients) != 2 {
		t.Fatalf("run has %d client rows, want 2", len(run.Clients))
	}
	var sum telemetry.Counters
	for _, c := range run.Clients {
		sum.Add(c.Counters)
	}
	machineTotals := telemetry.Counters{
		Refs: run.Refs, L1Hits: run.L1Hits, LocalFills: run.LocalFills,
		BlockCacheHits: run.BlockCacheHits, PageCacheHits: run.PageCacheHits,
		RemoteFetches: run.RemoteFetches, Refetches: run.Refetches,
		Upgrades: run.Upgrades, PageFaults: run.PageFaults,
		Allocations: run.Allocations, Replacements: run.Replacements,
		Relocations: run.Relocations, Demotions: run.Demotions,
		InvalsSent: run.InvalsSent, WritebacksHome: run.WritebacksHome,
	}
	if sum != machineTotals {
		t.Errorf("per-client sum %+v\n != machine totals %+v", sum, machineTotals)
	}
	if run.Refs == 0 || run.RemoteFetches == 0 {
		t.Errorf("degenerate run (refs=%d remote=%d): the scenario should exercise the protocol", run.Refs, run.RemoteFetches)
	}
	tl := run.Timeline
	if tl == nil || len(tl.Clients) != 2 {
		t.Fatalf("timeline missing client names: %+v", tl)
	}
	for _, iv := range tl.Intervals {
		if len(iv.PerClient) != 2 {
			t.Fatalf("interval %d has %d per-client splits, want 2", iv.Index, len(iv.PerClient))
		}
		var s telemetry.Counters
		for _, c := range iv.PerClient {
			s.Add(c)
		}
		if s != iv.Delta {
			t.Errorf("interval %d: per-client splits sum %+v != delta %+v", iv.Index, s, iv.Delta)
		}
	}
}

// TestScenarioReplayableAsPlainTrace checks the compiled scenario encodes
// to a valid trace whose replay matches an in-memory replay of the same
// scenario (the attribution changes what is *reported*, never what is
// *simulated*).
func TestScenarioReplayableAsPlainTrace(t *testing.T) {
	dir := writeMini(t)
	cfg := testCfg()
	w := compile(t, twoClients(), cfg, dir)
	var buf bytes.Buffer
	refs, _, err := tracefile.WriteWorkload(&buf, w.Fresh(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := records(w); refs != n {
		t.Errorf("encoded %d records, scenario has %d", refs, n)
	}
	d, err := tracefile.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	sys := config.Base(config.CCNUMA)
	sys.Geometry = cfg.Geometry
	sys.Nodes = cfg.Nodes
	sys.CPUsPerNode = cfg.CPUsPerNode
	runTrace := replayStreams(t, sys, d.Workload(), nil)
	runDirect := replayStreams(t, sys, w.Fresh(), nil)
	runDirect.Clients = nil // the trace replay has no attribution
	if !reflect.DeepEqual(runTrace, runDirect) {
		t.Error("trace replay and direct replay of the compiled scenario differ")
	}
}

func replayStreams(t *testing.T, sys config.System, w *workloads.Workload, extra []machine.Option) *stats.Run {
	t.Helper()
	opts := []machine.Option{machine.WithHomes(w.Homes), machine.WithPages(w.SharedPages)}
	if w.Attribution != nil {
		opts = append(opts, machine.WithAttribution(w.Attribution))
	}
	opts = append(opts, extra...)
	m, err := machine.New(sys, opts...)
	if err != nil {
		t.Fatal(err)
	}
	run, err := m.Run(w.Streams)
	if err != nil {
		t.Fatal(err)
	}
	if w.Check != nil {
		if err := w.Check(); err != nil {
			t.Fatal(err)
		}
	}
	return run
}

// TestBarrierCountsAligned checks every CPU of the merged scenario sees
// the same number of barriers (the machine's anonymous global barriers
// deadlock otherwise).
func TestBarrierCountsAligned(t *testing.T) {
	dir := writeMini(t)
	want := -1
	for cpu, lane := range refsOf(compile(t, twoClients(), testCfg(), dir)) {
		n := 0
		for _, r := range lane {
			if r.Barrier {
				n++
			}
		}
		if want == -1 {
			want = n
		} else if n != want {
			t.Fatalf("cpu %d has %d barriers, cpu 0 has %d", cpu, n, want)
		}
	}
	if want <= 0 {
		t.Fatal("scenario has no barriers; mini spec should contribute some")
	}
}

// TestTracePhase compiles a client whose phase is a captured trace.
func TestTracePhase(t *testing.T) {
	dir := writeMini(t)
	cfg := testCfg()
	// Record the mini spec as a trace in the same dir.
	w0 := compile(t, &Spec{
		Name: "solo",
		Clients: []Client{{Name: "only", RateFraction: 1,
			Arrival: Arrival{Process: "poisson"},
			Phases:  []PhaseRef{{Spec: "mini.json"}}}},
	}, cfg, dir)
	var buf bytes.Buffer
	if _, _, err := tracefile.WriteWorkload(&buf, w0, cfg); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "solo.trace"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	w := compile(t, &Spec{
		Name: "replayed",
		Clients: []Client{
			{Name: "a", RateFraction: 0.5, Arrival: Arrival{Process: "poisson"},
				Phases: []PhaseRef{{Trace: "solo.trace"}}},
			{Name: "b", RateFraction: 0.5, Arrival: Arrival{Process: "weibull", Shape: 0.8},
				Phases: []PhaseRef{{Spec: "mini.json"}}},
		},
	}, cfg, dir)
	if w.SharedPages <= w0.SharedPages {
		t.Errorf("two-tenant scenario has %d pages, single has %d — concatenation missing?", w.SharedPages, w0.SharedPages)
	}
	// A trace of the wrong shape is rejected.
	bad := workloads.Config{Nodes: 2, CPUsPerNode: 2, Geometry: addr.Default, Scale: 0.05}
	if _, _, err := Compile(&Spec{
		Name: "badshape",
		Clients: []Client{{Name: "a", RateFraction: 1, Arrival: Arrival{Process: "poisson"},
			Phases: []PhaseRef{{Trace: "solo.trace"}}}},
	}, bad, dir); err == nil {
		t.Error("compiling a 4-node trace into a 2-node scenario should fail")
	}
}

// TestSeedChangesArrivals checks the spec seed actually perturbs the
// compiled interleaving.
func TestSeedChangesArrivals(t *testing.T) {
	dir := writeMini(t)
	cfg := testCfg()
	seeded := twoClients()
	seeded.Seed = 7
	if reflect.DeepEqual(refsOf(compile(t, twoClients(), cfg, dir)), refsOf(compile(t, seeded, cfg, dir))) {
		t.Error("different spec seeds compiled identical streams")
	}
}

// writeTraceFile drops an empty (zero-reference) trace with the given
// header into dir and returns its path.
func writeTraceFile(t *testing.T, dir, name string, h tracefile.Header) string {
	t.Helper()
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := tracefile.NewWriter(f, h)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompileErrors(t *testing.T) {
	dir := writeMini(t)
	cfg := testCfg()
	clientWith := func(ph PhaseRef) *Spec {
		return &Spec{Name: "e", Clients: []Client{{
			Name: "a", RateFraction: 1,
			Arrival: Arrival{Process: "poisson"},
			Phases:  []PhaseRef{ph},
		}}}
	}
	if _, _, err := Compile(&Spec{}, cfg, dir); err == nil {
		t.Error("Compile accepted an invalid spec")
	}
	badCfg := cfg
	badCfg.Nodes = 0
	if _, _, err := Compile(clientWith(PhaseRef{Spec: "mini.json"}), badCfg, dir); err == nil {
		t.Error("Compile accepted an invalid machine config")
	}
	if _, _, err := Compile(clientWith(PhaseRef{Spec: "absent.json"}), cfg, dir); err == nil {
		t.Error("Compile accepted a missing phase spec")
	}
	if _, _, err := Compile(clientWith(PhaseRef{Trace: "absent.trace"}), cfg, dir); err == nil {
		t.Error("Compile accepted a missing phase trace")
	}
	garbage := filepath.Join(dir, "garbage.trace")
	if err := os.WriteFile(garbage, []byte("not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Compile(clientWith(PhaseRef{Trace: "garbage.trace"}), cfg, dir); err == nil {
		t.Error("Compile accepted a corrupt phase trace")
	}
	skewed := addr.Geometry{BlockShift: 4, PageShift: 12}
	writeTraceFile(t, dir, "skew.trace", tracefile.Header{
		Name: "skew", Geometry: skewed,
		CPUs: cfg.Nodes * cfg.CPUsPerNode, Nodes: cfg.Nodes,
	})
	if _, _, err := Compile(clientWith(PhaseRef{Trace: "skew.trace"}), cfg, dir); err == nil || !strings.Contains(err.Error(), "geometry") {
		t.Errorf("geometry-mismatched phase trace: err = %v, want a geometry complaint", err)
	}
	// Absolute phase paths bypass the base directory entirely.
	abs := clientWith(PhaseRef{Spec: filepath.Join(dir, "mini.json")})
	if _, _, err := Compile(abs, cfg, "/nowhere"); err != nil {
		t.Errorf("absolute phase path: %v", err)
	}
}

// TestPhaseFileBound: a phase file is read only if it is a regular file
// within maxPhaseBytes, checked before any byte is read, for spec and
// trace phases alike; a file at the bound still compiles. An oversize
// file is sparse, so the test writes no data.
func TestPhaseFileBound(t *testing.T) {
	dir := writeMini(t)
	cfg := testCfg()
	mini, err := os.Stat(filepath.Join(dir, "mini.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer func(old int64) { maxPhaseBytes = old }(maxPhaseBytes)
	maxPhaseBytes = mini.Size()
	big := filepath.Join(dir, "big")
	f, err := os.Create(big)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(maxPhaseBytes + 1); err != nil {
		t.Fatal(err)
	}
	f.Close()
	compile := func(ph PhaseRef) error {
		_, _, err := Compile(&Spec{Name: "b", Clients: []Client{{
			Name: "a", RateFraction: 1, Arrival: Arrival{Process: "poisson"}, Phases: []PhaseRef{ph},
		}}}, cfg, dir)
		return err
	}
	if err := compile(PhaseRef{Spec: "mini.json"}); err != nil {
		t.Errorf("a phase file at the bound: %v", err)
	}
	bound := fmt.Sprintf("%d-byte bound", maxPhaseBytes)
	for _, ph := range []PhaseRef{{Spec: "big"}, {Trace: "big"}} {
		if err := compile(ph); err == nil || !strings.Contains(err.Error(), bound) {
			t.Errorf("%+v past the bound: %v, want an error naming the %s", ph, err, bound)
		}
	}
	for _, path := range []string{dir, os.DevNull} {
		for _, ph := range []PhaseRef{{Spec: path}, {Trace: path}} {
			if err := compile(ph); err == nil || !strings.Contains(err.Error(), "not a regular file") {
				t.Errorf("%+v: %v, want a non-regular-file error", ph, err)
			}
		}
	}
}

// TestPhaseDigest: PhaseDigest digests what Compile reads, the phase
// files' contents in schedule order and not their paths; it refuses
// every phase file Compile would refuse to read (missing, not regular,
// past the bound), naming the client, phase and file; and it resolves
// relative paths against the base directory as Compile does.
func TestPhaseDigest(t *testing.T) {
	dir := writeMini(t)
	write := func(name, data string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	spec := func(phases ...PhaseRef) *Spec {
		return &Spec{Name: "s", Clients: []Client{
			{Name: "ok", RateFraction: 1, Arrival: Arrival{Process: "poisson"}, Phases: []PhaseRef{{Spec: "small.json"}}},
			{Name: "b", RateFraction: 1, Arrival: Arrival{Process: "poisson"}, Phases: phases},
		}}
	}
	digest := func(s *Spec, baseDir string) [sha256.Size]byte {
		t.Helper()
		sum, err := s.PhaseDigest(baseDir)
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	sum := digest(twoClients(), dir)
	if _, phases, err := Compile(twoClients(), testCfg(), dir); err != nil || phases != sum {
		t.Errorf("Compile digested %x (%v), PhaseDigest %x", phases, err, sum)
	}
	write("copy.json", miniSpec)
	moved := twoClients()
	for i := range moved.Clients {
		moved.Clients[i].Phases = []PhaseRef{{Spec: filepath.Join(dir, "copy.json")}}
	}
	if digest(moved, "/nowhere") != sum {
		t.Error("the same contents under another path digest differently")
	}
	write("small.json", "not even json")
	write("ab", "ab")
	write("c", "c")
	write("a", "a")
	write("bc", "bc")
	if digest(spec(PhaseRef{Trace: "ab"}, PhaseRef{Spec: "c"}), dir) == digest(spec(PhaseRef{Trace: "a"}, PhaseRef{Spec: "bc"}), dir) {
		t.Error("phase files that concatenate alike digest alike")
	}
	if digest(spec(PhaseRef{Spec: "a"}, PhaseRef{Spec: "c"}), dir) == digest(spec(PhaseRef{Spec: "c"}, PhaseRef{Spec: "a"}), dir) {
		t.Error("reordered phase files digest alike")
	}
	write("mini.json", miniSpec+" ")
	if digest(twoClients(), dir) == sum {
		t.Error("a rewritten phase file kept its digest")
	}

	defer func(old int64) { maxPhaseBytes = old }(maxPhaseBytes)
	maxPhaseBytes = 16
	for _, tc := range []struct {
		ph   PhaseRef
		want string
	}{
		{PhaseRef{Spec: "absent.json"}, filepath.Join(dir, "absent.json") + ": no such file"},
		{PhaseRef{Trace: dir}, dir + " is not a regular file"},
		{PhaseRef{Spec: "mini.json"}, filepath.Join(dir, "mini.json") + " is past the 16-byte bound"},
	} {
		_, err := spec(PhaseRef{Spec: "small.json"}, tc.ph).PhaseDigest(dir)
		if err == nil || !strings.Contains(err.Error(), `client "b": phase 1: `) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: %v, want an error naming client b, phase 1 and %q", tc.ph, err, tc.want)
		}
	}
	if _, err := spec().PhaseDigest("/nowhere"); err == nil {
		t.Error("relative phase paths did not resolve against the base directory")
	}
}

func TestCompileDegenerateStreams(t *testing.T) {
	dir := writeMini(t)
	cfg := testCfg()
	writeTraceFile(t, dir, "empty.trace", tracefile.Header{
		Name: "empty", Geometry: cfg.Geometry,
		CPUs: cfg.Nodes * cfg.CPUsPerNode, Nodes: cfg.Nodes,
	})
	// A zero-reference phase compiles to empty lanes (the n=0 guard in
	// stamp) and an empty merged scenario.
	w := compile(t, &Spec{Name: "quiet", Clients: []Client{{
		Name: "idle", RateFraction: 1,
		Arrival: Arrival{Process: "poisson"},
		Phases:  []PhaseRef{{Trace: "empty.trace"}},
	}}}, cfg, dir)
	if n := records(w); n != 0 {
		t.Errorf("zero-reference scenario has %d records", n)
	}
	// The placement falls back to round-robin past the compiled segment.
	if h := w.Homes(1 << 20); int(h) >= cfg.Nodes {
		t.Errorf("fallback home %d out of range", h)
	}
}

func TestGapClampsAtUint16(t *testing.T) {
	dir := writeMini(t)
	s := &Spec{Name: "slow", MeanGap: 1e6, Clients: []Client{{
		Name: "a", RateFraction: 1,
		Arrival: Arrival{Process: "poisson"},
		Phases:  []PhaseRef{{Spec: "mini.json"}},
	}}}
	clamped := false
	for _, lane := range refsOf(compile(t, s, testCfg(), dir)) {
		for _, r := range lane {
			if !r.Barrier && r.Gap == 0xFFFF {
				clamped = true
			}
		}
	}
	if !clamped {
		t.Error("mean gap of 1e6 cycles produced no clamped 0xFFFF gaps")
	}
}
