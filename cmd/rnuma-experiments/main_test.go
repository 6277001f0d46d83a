package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"rnuma/internal/report"
	"rnuma/internal/serve"
)

// runCLI drives one in-process invocation, returning the exit code and
// captured stdout/stderr.
func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errBuf bytes.Buffer
	code = run(args, &out, &errBuf)
	return code, out.String(), errBuf.String()
}

const ciTrace = "../../testdata/ci/fft.trace"

// TestUsageExitCodes pins exit 2 for usage errors — unknown flags and
// axes, malformed flag pairs, unparseable value lists — with the
// offending token named on stderr. None of these reach a simulation.
func TestUsageExitCodes(t *testing.T) {
	cases := []struct {
		name  string
		args  []string
		token string
	}{
		{"unknown flag", []string{"-bogus"}, "bogus"},
		{"bad sweep value", []string{"-exp", "sweep", "-sweep-axis", "nodes", "-sweep-values", "4,x"}, `"x"`},
		{"bad sweep axis", []string{"-exp", "sweep", "-sweep-axis", "warp"}, `"warp"`},
		{"bad dilate factor", []string{"-exp", "sweep", "-sweep-axis", "dilate", "-sweep-values", "1/0"}, `"1/0"`},
		{"one grid axis", []string{"-exp", "grid", "-grid-axes", "block"}, `"block"`},
		{"equal grid axes", []string{"-exp", "grid", "-grid-axes", "block,block"}, "different axes"},
		{"bad grid axis", []string{"-exp", "grid", "-grid-axes", "block,warp"}, `"warp"`},
		{"bad grid value", []string{"-exp", "grid", "-grid-axes", "block,threshold", "-grid-values-a", "16,zap"}, `"zap"`},
		{"bad timeline threshold", []string{"-exp", "timeline", "-sweep-values", "16,oops"}, `"oops"`},
		{"unknown sweep app", []string{"-exp", "sweep", "-sweep-app", "nosuch", "-sweep-axis", "nodes"}, `"nosuch"`},
		{"missing traffic scenario", []string{"-exp", "traffic"}, "-traffic"},
	}
	for _, tc := range cases {
		code, _, stderr := runCLI(t, tc.args...)
		if code != 2 {
			t.Errorf("%s: exit %d, want 2 (stderr: %s)", tc.name, code, stderr)
		}
		if !strings.Contains(stderr, tc.token) {
			t.Errorf("%s: stderr %q does not name %s", tc.name, stderr, tc.token)
		}
	}

	// Runtime errors stay exit 1: a well-formed request over a missing file.
	if code, _, stderr := runCLI(t, "-exp", "sweep", "-sweep-axis", "nodes", "-sweep-trace", "nosuch.trace"); code != 1 {
		t.Errorf("missing trace: exit %d, want 1 (stderr: %s)", code, stderr)
	}
}

// TestGridExperiment runs -exp grid end to end over the committed CI
// capture: the heat map, knee conclusions, and JSON document all land.
func TestGridExperiment(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "grid.json")
	code, stdout, stderr := runCLI(t,
		"-exp", "grid", "-sweep-trace", ciTrace,
		"-grid-axes", "block,threshold",
		"-grid-values-a", "16,32", "-grid-values-b", "16,64",
		"-grid-json", jsonPath)
	if code != 0 {
		t.Fatalf("grid exited %d: %s", code, stderr)
	}
	for _, want := range []string{"GRID — fft: block (x) x threshold (y), 2x2 cells", "heat map (R-NUMA/best):", "knees (R-NUMA/best bound 1.10):", "worst cell:"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("grid output missing %q (output:\n%s)", want, stdout)
		}
	}

	var doc report.GridDoc
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("decode -grid-json: %v", err)
	}
	if doc.Workload != "fft" || len(doc.Cells) != 2 || len(doc.Cells[0]) != 2 || len(doc.Knees) != 4 {
		t.Errorf("grid doc = %q %dx%d cells, %d knees", doc.Workload, len(doc.Cells), len(doc.Cells[0]), len(doc.Knees))
	}
}

// TestServedReportsMatchCLI: the CLI and rnuma-serve run the same
// executor, so a sweep and a grid over the committed capture, and a
// figure, print the same bytes offline as the daemon serves over HTTP
// (the CLI adds only its separator after a figure).
func TestServedReportsMatchCLI(t *testing.T) {
	ts := httptest.NewServer(serve.New(serve.Options{Scale: 0.02}).Handler())
	defer ts.Close()
	post := func(path string, body []byte, into any) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(ciTrace)
	if err != nil {
		t.Fatal(err)
	}
	var art serve.Artifact
	post("/api/v1/artifacts", data, &art)

	served := func(req serve.JobRequest) string {
		t.Helper()
		body, _ := json.Marshal(req)
		var info serve.JobInfo
		post("/api/v1/jobs", body, &info)
		for deadline := time.Now().Add(time.Minute); info.Status != serve.StatusDone; time.Sleep(10 * time.Millisecond) {
			if info.Status == serve.StatusFailed || time.Now().After(deadline) {
				t.Fatalf("served job %+v did not finish", info)
			}
			resp, err := http.Get(ts.URL + "/api/v1/jobs/" + info.ID)
			if err != nil {
				t.Fatal(err)
			}
			err = json.NewDecoder(resp.Body).Decode(&info)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
		}
		resp, err := http.Get(ts.URL + "/api/v1/jobs/" + info.ID + "/report")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		text, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(text)
	}

	sep := "\n" + strings.Repeat("=", 80) + "\n\n"
	for _, tc := range []struct {
		args []string
		req  serve.JobRequest
		tail string
	}{
		{[]string{"-exp", "sweep", "-sweep-trace", ciTrace},
			serve.JobRequest{Type: "sweep", Artifact: art.ID, Axis: "nodes", Values: "4,8,16"}, ""},
		{[]string{"-exp", "grid", "-sweep-trace", ciTrace, "-grid-values-a", "16,32", "-grid-values-b", "16,64"},
			serve.JobRequest{Type: "grid", Artifact: art.ID, Axis: "block", Values: "16,32", AxisB: "threshold", ValuesB: "16,64"}, ""},
		{[]string{"-exp", "fig6", "-apps", "fft", "-scale", "0.02"},
			serve.JobRequest{Type: "experiments", Figures: []string{"6"}, Apps: []string{"fft"}}, sep},
	} {
		code, stdout, stderr := runCLI(t, tc.args...)
		if code != 0 {
			t.Fatalf("%v exited %d: %s", tc.args, code, stderr)
		}
		if want := served(tc.req) + tc.tail; stdout != want {
			t.Errorf("%v: CLI output differs from the served report\nCLI:\n%s\nserved:\n%s", tc.args, stdout, want)
		}
	}
}

// TestSpecAndTraceRows: -specs and -traces files join the figures as
// rows of their own, and a trace file that fails to load exits 1 naming
// its path.
func TestSpecAndTraceRows(t *testing.T) {
	specs := "../../examples/specs/halo.json,../../examples/specs/hotcold.json"
	code, stdout, stderr := runCLI(t, "-exp", "fig6", "-scale", "0.05", "-apps", "lu", "-specs", specs, "-traces", ciTrace)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	for _, row := range []string{"lu", "halo-exchange", "hotcold", "fft"} {
		if !regexp.MustCompile(`(?m)^` + row + ` `).MatchString(stdout) {
			t.Errorf("no %s row in:\n%s", row, stdout)
		}
	}

	data, err := os.ReadFile(ciTrace)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(t.TempDir(), "cut.trace")
	if err := os.WriteFile(cut, data[:len(data)*2/3], 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr = runCLI(t, "-exp", "fig6", "-scale", "0.05", "-apps", "lu", "-traces", cut)
	if code != 1 || !strings.Contains(stderr, cut+": ") {
		t.Errorf("truncated -traces file: exit %d, stderr %q; want 1 naming %s", code, stderr, cut)
	}
}
