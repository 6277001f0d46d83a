package workloads_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rnuma/internal/addr"
	"rnuma/internal/tracefile"
	"rnuma/internal/workloads"
)

// update rewrites the catalog stream table instead of diffing against it:
//
//	go test ./internal/workloads -run TestCatalogStreams -update
var update = flag.Bool("update", false, "rewrite testdata/catalog-streams.txt")

const streamTable = "testdata/catalog-streams.txt"

// catalogRows lists the builds TestCatalogStreams pins: every
// application on eight machine shapes (odd node counts, one node, one
// CPU per node, more nodes than the base machine) at two scales and two
// seeds, plus the base 8x4 machine at full scale.
func catalogRows() []string {
	shapes := [][2]int{{8, 4}, {4, 2}, {3, 3}, {2, 1}, {16, 2}, {5, 3}, {1, 4}, {7, 5}}
	var rows []string
	for _, app := range workloads.Names() {
		for _, sh := range shapes {
			for _, scale := range []float64{0.05, 0.25} {
				for _, seed := range []int64{0, 7} {
					rows = append(rows, fmt.Sprintf("%s %dx%d scale=%g seed=%d", app, sh[0], sh[1], scale, seed))
				}
			}
		}
		for _, seed := range []int64{0, 7} {
			rows = append(rows, fmt.Sprintf("%s 8x4 scale=1 seed=%d", app, seed))
		}
	}
	return rows
}

// streamHash builds one row's workload and returns the canonical hash of
// its streams (the content key every recorded trace and store entry of
// that build carries).
func streamHash(t *testing.T, row string) string {
	t.Helper()
	var app string
	cfg := workloads.Config{Geometry: addr.Default}
	if _, err := fmt.Sscanf(row, "%s %dx%d scale=%g seed=%d", &app, &cfg.Nodes, &cfg.CPUsPerNode, &cfg.Scale, &cfg.Seed); err != nil {
		t.Fatalf("row %q: %v", row, err)
	}
	a, ok := workloads.ByName(app)
	if !ok {
		t.Fatalf("row %q: unknown application", row)
	}
	w := a.Build(cfg)
	sum, err := tracefile.CanonicalHashStreams(tracefile.WorkloadHeader(w, cfg), w.Streams)
	if err != nil {
		t.Fatalf("row %q: %v", row, err)
	}
	return fmt.Sprintf("%x", sum)
}

// TestCatalogStreams pins what every catalog application builds: the
// canonical hash of its streams on each row of catalogRows. Golden
// fixtures and store keys follow from these streams, so a change to a
// catalog spec or to the interpreter that moves any reference fails
// here, naming the application, shape, scale and seed. -short keeps the
// 0.05-scale rows.
func TestCatalogStreams(t *testing.T) {
	if *update {
		if testing.Short() {
			t.Fatal("-update rewrites every row; run it without -short")
		}
		var b strings.Builder
		for _, row := range catalogRows() {
			fmt.Fprintf(&b, "%s %s\n", row, streamHash(t, row))
		}
		if err := os.MkdirAll(filepath.Dir(streamTable), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(streamTable, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(streamTable)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		i := strings.LastIndexByte(line, ' ')
		want[line[:i]] = line[i+1:]
	}
	rows := catalogRows()
	if len(want) != len(rows) {
		t.Fatalf("%s has %d rows, want %d", streamTable, len(want), len(rows))
	}
	for _, row := range rows {
		if testing.Short() && !strings.Contains(row, "scale=0.05 ") {
			continue
		}
		if got := streamHash(t, row); got != want[row] {
			t.Errorf("%s: streams hash %s, want %s", row, got, want[row])
		}
	}
}
