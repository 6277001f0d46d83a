package harness

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"rnuma/internal/config"
	"rnuma/internal/stats"
	"rnuma/internal/telemetry"
	"rnuma/internal/tracefile"
	"rnuma/internal/workloads"
)

const testSpec = `{
  "name": "src-test",
  "regions": [{"name": "a", "pages": 8, "placement": "node"}],
  "phases": [{"iters": 2, "steps": [
    {"op": "sweep", "region": "a", "from": "neighbor:1", "density": 16, "gap": 10},
    {"op": "barrier"}
  ]}]
}`

// load registers an input with h through the loader, for the base
// machine.
func load(t *testing.T, h *Harness, kind string, data []byte) Source {
	t.Helper()
	src, err := h.Load(kind, data, "", "", config.Base(config.RNUMA))
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func TestSpecSourceThroughHarness(t *testing.T) {
	h := New(0.1)
	src := load(t, h, KindSpec, []byte(testSpec))
	if src.Name() != "src-test" {
		t.Fatalf("source name = %q", src.Name())
	}
	if !strings.HasPrefix(src.Key(), "spec:src-test:") {
		t.Fatalf("source key %q not content-derived", src.Key())
	}
	run, err := h.Run("src-test", config.Base(config.RNUMA))
	if err != nil {
		t.Fatal(err)
	}
	if run.Refs == 0 {
		t.Error("spec workload simulated zero references")
	}
	// The memo key must follow content, not the (app, sys) name pair.
	if key := h.KeyFor(NewJob("src-test", config.Base(config.RNUMA))).String(); !strings.Contains(key, "spec:src-test:") {
		t.Errorf("job key %q not derived from the source key", key)
	}
}

// TestRegisterConflicts: loading identical content again returns the
// registered source, under its embedded name or any other; different
// content under a registered name is an error.
func TestRegisterConflicts(t *testing.T) {
	h := New(0.1)
	a := load(t, h, KindSpec, []byte(testSpec))
	if b := load(t, h, KindSpec, []byte(testSpec)); b != a {
		t.Errorf("identical re-load returned %p, want the registered %p", b, a)
	}
	other := []byte(strings.Replace(testSpec, `"gap": 10`, `"gap": 11`, 1))
	if _, err := h.Load(KindSpec, other, "", "", config.System{}); err == nil {
		t.Error("conflicting load accepted")
	}
	renamed, err := h.Load(KindSpec, other, "src-test@2", "", config.System{})
	if err != nil || renamed.Name() != "src-test@2" {
		t.Fatalf("load under a new name: %v, %v", renamed, err)
	}
	if h.source("src-test") != a || h.source("src-test@2") != renamed {
		t.Error("lookups do not return the registered sources")
	}
	if _, err := h.Load("", []byte(testSpec), "", "", config.System{}); err != nil {
		t.Errorf("sniffed re-load: %v", err)
	}
	if _, err := h.Load("bogus", []byte(testSpec), "", "", config.System{}); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestTraceSourceShapeMismatch(t *testing.T) {
	cfg := workloads.Config{Nodes: 4, CPUsPerNode: 2, Geometry: workloads.DefaultConfig().Geometry, Scale: 0.05}
	app, _ := workloads.ByName("fft")
	var buf bytes.Buffer
	if _, _, err := tracefile.WriteWorkload(&buf, app.Build(cfg), cfg); err != nil {
		t.Fatal(err)
	}
	h := New(0.05)
	src := load(t, h, KindTrace, buf.Bytes())
	// The base system is 8x4; the trace was recorded on 4x2.
	if _, err := h.Run(src.Name(), config.Base(config.RNUMA)); err == nil {
		t.Error("shape mismatch not rejected")
	}
}

// TestSniffKind pins the input sniffer: binary → trace, JSON with a
// top-level "clients" key → traffic, and any other JSON object → spec,
// even when "clients" appears in a name or value.
func TestSniffKind(t *testing.T) {
	for _, tc := range []struct {
		data string
		want string
	}{
		{"\x00binary", KindTrace},
		{"  {\"clients\": []}", KindTraffic},
		{`{"name": "clients", "note": "drives many clients"}`, KindSpec},
		{`{"name": "halo"}`, KindSpec},
	} {
		if got := sniffKind([]byte(tc.data)); got != tc.want {
			t.Errorf("sniffKind(%q) = %s, want %s", tc.data, got, tc.want)
		}
	}
}

// TestRecordReplayIdentity is the round-trip acceptance invariant: for
// every catalog application at test scale, recording the generator's
// streams and replaying the file through the machine produces a stats.Run
// identical to simulating the live generator — the trace path changes the
// input transport, never the simulation.
func TestRecordReplayIdentity(t *testing.T) {
	apps := workloads.Names()
	systems := []config.System{config.Base(config.RNUMA), config.Base(config.SCOMA)}
	if testing.Short() {
		apps = []string{"barnes", "fft", "moldyn"}
		systems = systems[:1]
	}
	const scale = 0.05
	live := New(scale)
	replay := New(scale)
	for _, name := range apps {
		src := load(t, replay, KindTrace, recordCatalog(t, name, scale))
		for _, sys := range systems {
			want, err := live.Run(name, sys)
			if err != nil {
				t.Fatalf("%s on %s: live: %v", name, sys.Name, err)
			}
			got, err := replay.Run(src.Name(), sys)
			if err != nil {
				t.Fatalf("%s on %s: replay: %v", name, sys.Name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s on %s: replayed run differs from live run\n live:   %s\n replay: %s",
					name, sys.Name, want.Summary(), got.Summary())
			}
		}
	}
}

// TestDifferentialIdentity is the trace-toolchain acceptance invariant:
// for every catalog application, each transport of the same reference
// streams — the Writer's encoding and a cut-into-halves-and-concatenated
// recomposition of it — must replay to a stats.Run identical to
// simulating the live generator, and the version-1 fixture of a slice of
// the lu capture must replay like the Writer's cut of that slice. The
// toolchain changes how references travel, never what the machine sees.
func TestDifferentialIdentity(t *testing.T) {
	apps := workloads.Names()
	if testing.Short() {
		apps = []string{"em3d", "lu", "radix"}
	}
	const scale = 0.05
	sys := config.Base(config.RNUMA)
	cfg := workloads.Config{
		Nodes:       sys.Nodes,
		CPUsPerNode: sys.CPUsPerNode,
		Geometry:    sys.Geometry,
		Scale:       scale,
	}
	dir := t.TempDir()
	live := New(scale)

	for _, name := range apps {
		app, _ := workloads.ByName(name)
		want, err := live.Run(name, sys)
		if err != nil {
			t.Fatalf("%s: live: %v", name, err)
		}

		// Transport 1: the recorded generator.
		v2Path := filepath.Join(dir, name+".v2.trace")
		writeTraceFile(t, v2Path, app, cfg)

		// Transport 2: cut the trace into two per-CPU record-range halves
		// and concatenate them back.
		catPath := filepath.Join(dir, name+".cat.trace")
		recomposeHalves(t, v2Path, filepath.Join(dir, name), catPath)

		keys := make(map[string]string)
		for transport, path := range map[string]string{"v2": v2Path, "cut+cat": catPath} {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, transport, err)
			}
			replay := New(scale)
			src := load(t, replay, KindTrace, data)
			keys[transport] = src.Key()
			got, err := replay.Run(src.Name(), sys)
			if err != nil {
				t.Fatalf("%s/%s: replay: %v", name, transport, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: replayed run differs from live run\n live:   %s\n replay: %s",
					name, transport, want.Summary(), got.Summary())
			}
		}
		// Every transport carries the same streams, so memoization must
		// treat them as the same workload content.
		for transport, key := range keys {
			if key != keys["v2"] {
				t.Errorf("%s: %s memo key %q differs from v2 key %q — encodings of one capture would not share simulations",
					name, transport, key, keys["v2"])
			}
		}
	}

	// The version-1 transport: the fixture encodes CPUs 0 and 3, records
	// [2000,7000), of the lu capture.
	v1, err := os.ReadFile(filepath.Join("..", "tracefile", "testdata", "lu-slice.v1.trace"))
	if err != nil {
		t.Fatal(err)
	}
	lu, _ := workloads.ByName("lu")
	var capture, cut bytes.Buffer
	if _, _, err := tracefile.WriteWorkload(&capture, lu.Build(cfg), cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := tracefile.Cut(&cut, &capture, tracefile.CutSpec{CPUs: []int{0, 3}, From: 2000, To: 7000}); err != nil {
		t.Fatal(err)
	}
	var keys [2]string
	var runs [2]*stats.Run
	for i, data := range [][]byte{cut.Bytes(), v1} {
		replay := New(scale)
		src := load(t, replay, KindTrace, data)
		keys[i] = src.Key()
		if runs[i], err = replay.Run(src.Name(), sys); err != nil {
			t.Fatal(err)
		}
	}
	if keys[1] != keys[0] || !reflect.DeepEqual(runs[1], runs[0]) {
		t.Errorf("lu slice: version-1 fixture keyed %s, ran %s; the Writer's cut keyed %s, ran %s",
			keys[1], runs[1].Summary(), keys[0], runs[0].Summary())
	}
}

// writeTraceFile records a workload build to path.
func writeTraceFile(t *testing.T, path string, app workloads.App, cfg workloads.Config) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := tracefile.WriteWorkload(f, app.Build(cfg), cfg); err != nil {
		t.Fatalf("record %s: %v", path, err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// recomposeHalves cuts src into per-CPU record ranges [0,N) and [N,end)
// and concatenates the pieces into dst.
func recomposeHalves(t *testing.T, src, tmpPrefix, dst string) {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	// Pick a split point that lands mid-stream for every catalog app at
	// test scale.
	const split = 1000
	var head, tail bytes.Buffer
	if _, err := tracefile.Cut(&head, bytes.NewReader(data), tracefile.CutSpec{To: split}); err != nil {
		t.Fatalf("cut head: %v", err)
	}
	if _, err := tracefile.Cut(&tail, bytes.NewReader(data), tracefile.CutSpec{From: split}); err != nil {
		t.Fatalf("cut tail: %v", err)
	}
	out, err := os.Create(dst)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tracefile.Cat(out, []io.Reader{&head, &tail}); err != nil {
		t.Fatalf("cat: %v", err)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSeedReproducibility pins the -seed contract: the same seed yields
// identical runs, a different seed changes shuffle-sensitive workloads.
func TestSeedReproducibility(t *testing.T) {
	run := func(seed int64) int64 {
		h := New(0.05)
		h.Seed = seed
		r, err := h.Run("em3d", config.Base(config.RNUMA)) // em3d scatters, so it is seed-sensitive
		if err != nil {
			t.Fatal(err)
		}
		return r.ExecCycles
	}
	if a, b := run(7), run(7); a != b {
		t.Errorf("same seed: exec %d vs %d", a, b)
	}
	if a, b := run(0), run(12345); a == b {
		t.Errorf("different seeds produced identical exec time %d (scatter order should differ)", a)
	}
	// Mutating Seed on one harness must not serve stale cached results:
	// the memo key carries the seed.
	h := New(0.05)
	h.Seed = 7
	a, err := h.Run("em3d", config.Base(config.RNUMA))
	if err != nil {
		t.Fatal(err)
	}
	h.Seed = 12345
	b, err := h.Run("em3d", config.Base(config.RNUMA))
	if err != nil {
		t.Fatal(err)
	}
	if a.ExecCycles == b.ExecCycles {
		t.Error("seed change on one harness returned the cached run")
	}
}

const testTrafficScenario = `{
  "name": "mix-test",
  "clients": [
    {"name": "steady", "rate_fraction": 0.7,
     "arrival": {"process": "poisson"},
     "phases": [{"spec": "w.json"}]},
    {"name": "bursty", "rate_fraction": 0.3,
     "arrival": {"process": "gamma", "cv": 3},
     "phases": [{"spec": "w.json"}]}
  ]
}`

// writeTrafficScenario drops a scenario plus its phase spec into a temp
// dir and returns the scenario path.
func writeTrafficScenario(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "w.json"), []byte(testSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "mix.json")
	if err := os.WriteFile(path, []byte(testTrafficScenario), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// compileScenario loads a scenario file into h for the base machine:
// its phase paths resolve against the file's directory.
func compileScenario(t *testing.T, h *Harness, path string) Source {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	src, err := h.Load(KindTraffic, data, "", filepath.Dir(path), config.Base(config.RNUMA))
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// TestTrafficKeyMatchesEncoding: a traffic scenario is keyed from its
// compiled streams without encoding them, yet each example scenario keys
// exactly as hashing its encoding does.
func TestTrafficKeyMatchesEncoding(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.json"))
	if err != nil || len(paths) != 2 {
		t.Fatalf("example scenarios %v (%v), want two", paths, err)
	}
	for _, path := range paths {
		src := compileScenario(t, New(0.05), path)
		var buf bytes.Buffer
		sc := ScenarioOf(src)
		if _, _, err := tracefile.WriteWorkload(&buf, sc.Workload(), sc.Cfg); err != nil {
			t.Fatal(err)
		}
		sum, _, err := tracefile.CanonicalHash(&buf)
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		specSum := sha256.Sum256(data)
		if want := fmt.Sprintf("traffic:%s:%x:%x", src.Name(), sum[:8], specSum[:8]); src.Key() != want {
			t.Errorf("%s: key %s, encoded and hashed %s", path, src.Key(), want)
		}
	}
}

func TestTrafficSourceThroughHarness(t *testing.T) {
	path := writeTrafficScenario(t)
	h := New(0.05)
	src := compileScenario(t, h, path)
	if src.Name() != "mix-test" {
		t.Fatalf("source name = %q", src.Name())
	}
	if !strings.HasPrefix(src.Key(), "traffic:mix-test:") {
		t.Fatalf("source key %q not content-derived", src.Key())
	}
	// The key is a pure function of the spec + shape: an independent
	// compilation of the same file must memoize identically.
	if src2 := compileScenario(t, New(0.05), path); src.Key() != src2.Key() {
		t.Errorf("two compilations of one scenario produced keys %q vs %q", src.Key(), src2.Key())
	}
	// A scenario compiled for one shape refuses to load on another.
	bad := h.workloadConfig(config.Base(config.RNUMA))
	bad.Nodes = 4
	if _, err := src.Load(bad); err == nil {
		t.Error("Load accepted a machine shape the scenario was not compiled for")
	}

	run, err := h.Run("mix-test", config.Base(config.RNUMA))
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Clients) != 2 || run.Clients[0].Name != "steady" {
		t.Fatalf("run carries client rows %+v, want steady+bursty", run.Clients)
	}
	if run.Clients[0].Counters.Refs+run.Clients[1].Counters.Refs != run.Refs {
		t.Error("per-client refs do not sum to the machine total")
	}
}

// TestTrafficParallelMatchesSerial pins the scenario determinism gate:
// the same scenario prefetched across 8 workers must produce runs (and
// timelines, including the per-client interval splits) bit-identical to
// a serial harness.
func TestTrafficParallelMatchesSerial(t *testing.T) {
	path := writeTrafficScenario(t)
	systems := []config.System{
		config.Base(config.CCNUMA), config.Base(config.SCOMA),
		config.Base(config.RNUMA), config.Ideal(),
	}
	collect := func(workers int) []*stats.Run {
		h := New(0.05)
		h.Workers = workers
		h.Telemetry = telemetry.Config{Window: 4096}
		src := compileScenario(t, h, path)
		h.Prefetch(NewPlan().AddRuns([]string{src.Name()}, systems...))
		runs := make([]*stats.Run, len(systems))
		for i, sys := range systems {
			var err error
			if runs[i], err = h.Run(src.Name(), sys); err != nil {
				t.Fatal(err)
			}
		}
		return runs
	}
	serial, parallel := collect(1), collect(8)
	for i := range systems {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Errorf("system %s: serial and 8-worker runs differ", systems[i].Name)
		}
		if serial[i].Timeline == nil || len(serial[i].Timeline.Clients) != 2 {
			t.Errorf("system %s: timeline missing per-client capture", systems[i].Name)
		}
	}
}

func TestTrafficSourceErrors(t *testing.T) {
	h := New(0.05)
	sys := config.Base(config.RNUMA)
	if _, err := h.Load(KindTraffic, []byte(`{"name":`), "", "", sys); err == nil {
		t.Error("Load accepted a truncated traffic scenario")
	}
	// A parseable scenario whose phase file does not exist fails at
	// load time, not at simulation time.
	missing := `{"name": "m", "clients": [{"name": "a", "rate_fraction": 1,
		"arrival": {"process": "poisson"}, "phases": [{"spec": "absent.json"}]}]}`
	if _, err := h.Load(KindTraffic, []byte(missing), "", t.TempDir(), sys); err == nil {
		t.Error("Load accepted a scenario with a missing phase file")
	}
	src := compileScenario(t, h, writeTrafficScenario(t))
	if sc := ScenarioOf(src); sc == nil || sc.Name != src.Name() {
		t.Errorf("ScenarioOf = %+v, want the compiled scenario named %q", sc, src.Name())
	}
	if sc := ScenarioOf(load(t, h, KindSpec, []byte(testSpec))); sc != nil {
		t.Errorf("ScenarioOf a spec = %+v, want nil", sc)
	}
}
