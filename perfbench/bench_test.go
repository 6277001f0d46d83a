package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// benchmarkFile mirrors the metric lists of BENCHMARK.json.
type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestEmittedNamesInBenchmarkJSON pins the printed vocabulary to
// BENCHMARK.json: emit prints exactly the names of one table, so each
// table must equal the file's list, name for name and unit for unit.
func TestEmittedNamesInBenchmarkJSON(t *testing.T) {
	f := loadBenchmarkFile(t)
	for _, c := range []struct {
		what string
		defs []metricDef
		file []struct{ Name, Unit string }
	}{
		{"end_to_end", endToEnd, f.EndToEnd},
		{"per_layer", perLayer, f.PerLayer},
	} {
		if len(c.defs) != len(c.file) {
			t.Errorf("%s: benchmark declares %d metrics, BENCHMARK.json lists %d", c.what, len(c.defs), len(c.file))
		}
		listed := map[string]string{}
		for _, m := range c.file {
			if _, dup := listed[m.Name]; dup {
				t.Errorf("%s: %s listed twice", c.what, m.Name)
			}
			listed[m.Name] = m.Unit
		}
		for _, d := range c.defs {
			unit, ok := listed[d.name]
			if !ok {
				t.Errorf("%s: emitted metric %s is missing from BENCHMARK.json", c.what, d.name)
			} else if unit != d.unit {
				t.Errorf("%s: %s has unit %q here, %q in BENCHMARK.json", c.what, d.name, d.unit, unit)
			}
		}
	}
}

func TestEmitRejectsUndeclared(t *testing.T) {
	if _, err := emit(endToEnd, map[string]float64{"no_such_metric": 1}); err == nil {
		t.Fatal("emit accepted an undeclared metric")
	}
	got, err := emit(endToEnd, map[string]float64{"cpu_s": 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(endToEnd) || got["cpu_s"].Value != 2 || got["cpu_s"].Unit != "s" {
		t.Fatalf("emit = %v", got)
	}
	if _, err := emit(endToEnd, map[string]float64{"cpu_s": math.NaN()}); err == nil {
		t.Fatal("emit accepted NaN")
	}
}

// TestSelfTimes checks self time on a tree with overlapping parallel
// children, a child sticking out of its parent, and a grandchild.
func TestSelfTimes(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{name: "root", parent: -1, start: at(0), end: at(100)},
		{name: "a", parent: 0, start: at(10), end: at(50)},  // overlaps b
		{name: "b", parent: 0, start: at(30), end: at(70)},  // union a+b = 10..70
		{name: "c", parent: 0, start: at(90), end: at(120)}, // clipped to 90..100
		{name: "d", parent: 1, start: at(20), end: at(25)},
	}
	want := []time.Duration{
		30 * time.Millisecond, // 100 - (60 + 10)
		35 * time.Millisecond, // 40 - 5
		40 * time.Millisecond,
		30 * time.Millisecond,
		5 * time.Millisecond,
	}
	self := selfTimes(spans)
	for i, s := range self {
		if s != want[i] {
			t.Errorf("%s: self %v, want %v", spans[i].name, s, want[i])
		}
		if s < 0 {
			t.Errorf("%s: negative self time %v", spans[i].name, s)
		}
		if p := spans[i].parent; p >= 0 && s > spans[p].end.Sub(spans[p].start) {
			t.Errorf("%s: self %v exceeds its parent's duration", spans[i].name, s)
		}
	}
	if got := selfByName(spans)["root"]; got != 0.03 {
		t.Errorf("selfByName root = %v, want 0.03", got)
	}
}

// TestTracerRecordsNothingWhenNil checks untraced runs pay no tracing.
func TestTracerRecordsNothingWhenNil(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", -1)
	tr.end(id)
	tr.record("y", id, time.Now(), time.Now())
	if id != -1 {
		t.Fatalf("nil tracer returned span id %d", id)
	}
	live := &tracer{}
	root := live.begin("root", -1)
	child := live.begin("child", root)
	live.end(child)
	live.end(root)
	if len(live.spans) != 2 || live.spans[child].parent != root {
		t.Fatalf("spans = %+v", live.spans)
	}
	for _, s := range selfTimes(live.spans) {
		if s < 0 {
			t.Fatalf("negative self time %v", s)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {25, 2}, {100, 5}, {90, 4.6}, {10, 1.4},
	} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i)
	}
	if got := tailSamples(hundred, 90); got != 10 {
		t.Errorf("samples beyond p90 of 0..99 = %d, want 10", got)
	}
}

func TestFailedFrac(t *testing.T) {
	for _, c := range []struct {
		failed, attempted int64
		want              float64
	}{
		{0, 10, 0}, {1, 4, 0.25}, {3, 3, 1}, {0, 0, 1},
	} {
		if got := failedFrac(c.failed, c.attempted); got != c.want {
			t.Errorf("failedFrac(%d, %d) = %v, want %v", c.failed, c.attempted, got, c.want)
		}
	}
}

func TestModuleOf(t *testing.T) {
	for rel, want := range map[string]string{
		"doc.go":                   "rnuma",
		"internal/harness/grid.go": "harness",
		"internal/tracefile/snapfile/snapfile.go": "tracefile",
		"cmd/rnuma-serve/main.go":                 "cmd",
		"examples/halo/main.go":                   "examples",
		"internal/stray.go":                       "",
	} {
		if got := moduleOf(rel); got != want {
			t.Errorf("moduleOf(%s) = %q, want %q", rel, got, want)
		}
	}
}
