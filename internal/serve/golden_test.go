package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"rnuma/internal/harness"
)

// update rewrites the golden reports instead of diffing against them:
//
//	go test ./internal/serve -run TestSweepGridGolden -update
var update = flag.Bool("update", false, "rewrite testdata golden reports")

// TestSweepGridGolden pins the rendered text and JSON of one sweep per
// axis and of block x threshold, threshold x block and block x dilate
// grids, all over one em3d capture, whose threshold line moves (some
// thresholds relocate pages, others do not). The served and offline
// reports share Execute, so comparing them cannot see a change both
// paths make; these files can.
func TestSweepGridGolden(t *testing.T) {
	a, err := NewArtifact(harness.KindTrace, recordTraceScaled(t, "em3d", 0.02), "", "")
	if err != nil {
		t.Fatal(err)
	}
	values := func(axis harness.Axis, csv string) []harness.SweepValue {
		v, err := harness.ParseSweepValues(axis, csv)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	sweep := func(axis harness.Axis, csv string) Job {
		return Job{Type: "sweep", Artifact: a, Axis: axis, Values: values(axis, csv)}
	}
	grid := func(x harness.Axis, xs string, y harness.Axis, ys string) Job {
		return Job{Type: "grid", Artifact: a, Axis: x, Values: values(x, xs), AxisB: y, ValuesB: values(y, ys)}
	}
	for _, tc := range []struct {
		name string
		job  Job
	}{
		{"sweep-nodes", sweep(harness.AxisNodes, "4,8,16")},
		{"sweep-dilate", sweep(harness.AxisDilate, "1/2,1,2,4")},
		{"sweep-block", sweep(harness.AxisBlockSize, "16,32,64,128")},
		{"sweep-page", sweep(harness.AxisPageSize, "2048,4096,8192")},
		{"sweep-threshold", sweep(harness.AxisThreshold, "16,64,256,1024")},
		{"grid-block-threshold", grid(harness.AxisBlockSize, "16,32,64", harness.AxisThreshold, "16,64,256")},
		{"grid-threshold-block", grid(harness.AxisThreshold, "16,64,256", harness.AxisBlockSize, "16,32,64")},
		{"grid-block-dilate", grid(harness.AxisBlockSize, "16,32", harness.AxisDilate, "1/2,2")},
	} {
		var text bytes.Buffer
		doc, err := Execute(harness.New(testScale), tc.job, &text)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		js, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		checkGolden(t, tc.name+".txt", text.Bytes())
		checkGolden(t, tc.name+".json", append(js, '\n'))
	}
}

// checkGolden compares got with testdata/golden/<name>, or rewrites the
// file under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden report (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the golden report (re-baseline with -update only if the change is intended):\n got:\n%s\nwant:\n%s", name, got, want)
	}
}
