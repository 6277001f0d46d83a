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

func TestSpecSourceThroughHarness(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "w.json")
	if err := os.WriteFile(path, []byte(testSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := SpecFileSource(path)
	if err != nil {
		t.Fatal(err)
	}
	if src.Name() != "src-test" {
		t.Fatalf("source name = %q", src.Name())
	}
	if !strings.HasPrefix(src.Key(), "spec:src-test:") {
		t.Fatalf("source key %q not content-derived", src.Key())
	}
	h := New(0.1)
	if err := h.Register(src); err != nil {
		t.Fatal(err)
	}
	run, err := h.Run("src-test", config.Base(config.RNUMA))
	if err != nil {
		t.Fatal(err)
	}
	if run.Refs == 0 {
		t.Error("spec workload simulated zero references")
	}
	// The memo key must follow content, not the (app, sys) name pair.
	if key := h.jobKey(NewJob("src-test", config.Base(config.RNUMA))); !strings.Contains(key, "spec:src-test:") {
		t.Errorf("job key %q not derived from the source key", key)
	}
}

func TestRegisterConflicts(t *testing.T) {
	h := New(0.1)
	a, err := SpecSource([]byte(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Register(a); err != nil {
		t.Fatal(err)
	}
	// Identical content re-registers cleanly.
	b, _ := SpecSource([]byte(testSpec))
	if err := h.Register(b); err != nil {
		t.Errorf("identical re-register: %v", err)
	}
	// Same name, different content: rejected.
	c, _ := SpecSource([]byte(strings.Replace(testSpec, `"gap": 10`, `"gap": 11`, 1)))
	if err := h.Register(c); err == nil {
		t.Error("conflicting register accepted")
	}
	if got := h.Sources(); len(got) != 1 || got[0] != "src-test" {
		t.Errorf("sources = %v", got)
	}
}

func TestTraceSourceShapeMismatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.trace")
	cfg := workloads.Config{Nodes: 4, CPUsPerNode: 2, Geometry: workloads.DefaultConfig().Geometry, Scale: 0.05}
	app, _ := workloads.ByName("fft")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := tracefile.WriteWorkload(f, app.Build(cfg), cfg); err != nil {
		t.Fatal(err)
	}
	f.Close()
	src, err := TraceFileSource(path)
	if err != nil {
		t.Fatal(err)
	}
	h := New(0.05)
	if err := h.Register(src); err != nil {
		t.Fatal(err)
	}
	// The base system is 8x4; the trace was recorded on 4x2.
	if _, err := h.Run(src.Name(), config.Base(config.RNUMA)); err == nil {
		t.Error("shape mismatch not rejected")
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
	dir := t.TempDir()

	live := New(scale)
	replay := New(scale)
	base := config.Base(config.RNUMA)
	cfg := workloads.Config{
		Nodes:       base.Nodes,
		CPUsPerNode: base.CPUsPerNode,
		Geometry:    base.Geometry,
		Scale:       scale,
	}
	for _, name := range apps {
		app, _ := workloads.ByName(name)
		path := filepath.Join(dir, name+".trace")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := tracefile.WriteWorkload(f, app.Build(cfg), cfg); err != nil {
			t.Fatalf("%s: record: %v", name, err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		src, err := TraceFileSource(path)
		if err != nil {
			t.Fatalf("%s: open: %v", name, err)
		}
		if err := replay.Register(src); err != nil {
			t.Fatalf("%s: register: %v", name, err)
		}
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
// streams — the v1 encoding, the default v2-compressed encoding, and a
// cut-into-halves-and-concatenated recomposition — must replay to a
// stats.Run identical to simulating the live generator. The toolchain changes how references
// travel, never what the machine sees.
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

		// Transport 1+2: v1 and v2 encodings of the recorded generator.
		v1Path := filepath.Join(dir, name+".v1.trace")
		v2Path := filepath.Join(dir, name+".v2.trace")
		writeTraceFile(t, v1Path, app, cfg, tracefile.FormatVersion(tracefile.VersionV1))
		writeTraceFile(t, v2Path, app, cfg)

		// Transport 3: cut the v2 trace into two per-CPU record-range
		// halves and concatenate them back.
		catPath := filepath.Join(dir, name+".cat.trace")
		recomposeHalves(t, v2Path, filepath.Join(dir, name), catPath)

		keys := make(map[string]string)
		for transport, path := range map[string]string{
			"v1": v1Path, "v2": v2Path, "cut+cat": catPath,
		} {
			src, err := TraceFileSource(path)
			if err != nil {
				t.Fatalf("%s/%s: open: %v", name, transport, err)
			}
			keys[transport] = src.Key()
			replay := New(scale)
			if err := replay.Register(src); err != nil {
				t.Fatalf("%s/%s: register: %v", name, transport, err)
			}
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
}

// writeTraceFile records a workload build to path with the given encoding.
func writeTraceFile(t *testing.T, path string, app workloads.App, cfg workloads.Config, opts ...tracefile.WriterOption) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := tracefile.WriteWorkload(f, app.Build(cfg), cfg, opts...); err != nil {
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

// compileScenario is TrafficSource over a scenario file: its phase paths
// resolve against the file's directory.
func compileScenario(t *testing.T, path string, cfg workloads.Config) *TrafficScenarioSource {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	src, err := TrafficSource(data, filepath.Dir(path), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// TestTrafficKeyMatchesEncoding: a traffic scenario is keyed from its
// compiled streams without encoding them, yet each example scenario keys
// exactly as hashing its encoding does.
func TestTrafficKeyMatchesEncoding(t *testing.T) {
	cfg := workloads.DefaultConfig()
	cfg.Scale = 0.05
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.json"))
	if err != nil || len(paths) != 2 {
		t.Fatalf("example scenarios %v (%v), want two", paths, err)
	}
	for _, path := range paths {
		src := compileScenario(t, path, cfg)
		var buf bytes.Buffer
		sc := src.Scenario()
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
	cfg := workloads.DefaultConfig()
	cfg.Scale = 0.05
	src := compileScenario(t, path, cfg)
	if src.Name() != "mix-test" {
		t.Fatalf("source name = %q", src.Name())
	}
	if !strings.HasPrefix(src.Key(), "traffic:mix-test:") {
		t.Fatalf("source key %q not content-derived", src.Key())
	}
	// The key is a pure function of the spec + shape: an independent
	// compilation of the same file must memoize identically.
	if src2 := compileScenario(t, path, cfg); src.Key() != src2.Key() {
		t.Errorf("two compilations of one scenario produced keys %q vs %q", src.Key(), src2.Key())
	}
	// A scenario compiled for one shape refuses to load on another.
	bad := cfg
	bad.Nodes = 4
	if _, err := src.Load(bad); err == nil {
		t.Error("Load accepted a machine shape the scenario was not compiled for")
	}

	h := New(0.05)
	if err := h.Register(src); err != nil {
		t.Fatal(err)
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
	cfg := workloads.DefaultConfig()
	cfg.Scale = 0.05
	systems := []config.System{
		config.Base(config.CCNUMA), config.Base(config.SCOMA),
		config.Base(config.RNUMA), config.Ideal(),
	}
	collect := func(workers int) []*stats.Run {
		src := compileScenario(t, path, cfg)
		h := New(0.05)
		h.Workers = workers
		h.Telemetry = telemetry.Config{Window: 4096}
		if err := h.Register(src); err != nil {
			t.Fatal(err)
		}
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
	cfg := workloads.DefaultConfig()
	cfg.Scale = 0.05
	if _, err := TrafficSource([]byte(`{"name":`), "", cfg); err == nil {
		t.Error("TrafficSource accepted truncated JSON")
	}
	// A parseable scenario whose phase file does not exist fails at
	// compile time, not at simulation time.
	missing := `{"name": "m", "clients": [{"name": "a", "rate_fraction": 1,
		"arrival": {"process": "poisson"}, "phases": [{"spec": "absent.json"}]}]}`
	if _, err := TrafficSource([]byte(missing), t.TempDir(), cfg); err == nil {
		t.Error("TrafficSource accepted a scenario with a missing phase file")
	}
	src := compileScenario(t, writeTrafficScenario(t), cfg)
	if sc := src.Scenario(); sc == nil || sc.Name != src.Name() {
		t.Errorf("Scenario() = %+v, want the compiled scenario named %q", sc, src.Name())
	}
}
