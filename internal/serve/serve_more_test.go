package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rnuma/internal/addr"
	"rnuma/internal/harness"
	"rnuma/internal/tracefile"
	"rnuma/internal/workloads"
)

// TestListingAndStoreEndpoints drives the read-only surface: artifact
// and job listings, single-artifact lookup by prefix, the store
// counters, and the server event log.
func TestListingAndStoreEndpoints(t *testing.T) {
	var log bytes.Buffer
	s, ts := newTestServer(t, Options{Log: &log})

	trace := upload(t, ts, "", recordTrace(t, "fft"))
	specData, err := os.ReadFile("../../examples/specs/halo.json")
	if err != nil {
		t.Fatal(err)
	}
	spec := upload(t, ts, "", specData)
	if spec.Kind != harness.KindSpec {
		t.Errorf("spec sniffed as %s", spec.Kind)
	}
	scenario, err := os.ReadFile("../../examples/scenarios/steady-mix.json")
	if err != nil {
		t.Fatal(err)
	}
	traffic := upload(t, ts, "", scenario)
	if traffic.Kind != harness.KindTraffic {
		t.Errorf("scenario sniffed as %s", traffic.Kind)
	}

	info := submit(t, ts, JobRequest{Type: "replay", Artifact: trace.ID})
	waitJob(t, ts, info.ID)

	resp, err := http.Get(ts.URL + "/api/v1/artifacts")
	if err != nil {
		t.Fatal(err)
	}
	var arts []Artifact
	if err := json.NewDecoder(resp.Body).Decode(&arts); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(arts) != 3 {
		t.Errorf("artifact list has %d entries, want 3", len(arts))
	}

	resp, err = http.Get(ts.URL + "/api/v1/artifacts/" + trace.ID[:12])
	if err != nil {
		t.Fatal(err)
	}
	var got Artifact
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got.ID != trace.ID {
		t.Errorf("prefix lookup returned %s, want %s", got.ID, trace.ID)
	}
	resp, err = http.Get(ts.URL + "/api/v1/artifacts/deadbeefdeadbeef")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown artifact: %s, want 404", resp.Status)
	}

	resp, err = http.Get(ts.URL + "/api/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var jobs []JobInfo
	if err := json.NewDecoder(resp.Body).Decode(&jobs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(jobs) != 1 || jobs[0].ID != info.ID {
		t.Errorf("job list = %+v, want exactly %s", jobs, info.ID)
	}
	resp, err = http.Get(ts.URL + "/api/v1/jobs/j999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: %s, want 404", resp.Status)
	}

	resp, err = http.Get(ts.URL + "/api/v1/store")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Store       harnessStats `json:"store"`
		Jobs        int          `json:"jobs"`
		Simulations int64        `json:"simulations"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Jobs != 1 || st.Simulations == 0 || st.Store.Entries == 0 {
		t.Errorf("store snapshot = %+v, want 1 job with work done", st)
	}

	for _, want := range []string{"artifact", "job j1: submitted replay", "job j1: done"} {
		if !strings.Contains(log.String(), want) {
			t.Errorf("server log missing %q:\n%s", want, log.String())
		}
	}
	_ = s
}

// harnessStats mirrors harness.StoreStats for decoding without the import.
type harnessStats struct {
	Entries  int   `json:"entries"`
	Started  int64 `json:"started"`
	Hits     int64 `json:"hits"`
	DiskHits int64 `json:"diskHits"`
}

// TestArtifactResolution pins the ref rules: exact ID, unique >=8-char
// prefix, unique name — and ambiguity as an error, never a guess.
func TestArtifactResolution(t *testing.T) {
	s := New(Options{Scale: testScale})
	trace1 := recordTrace(t, "fft")
	a1, created, err := s.AddArtifact(harness.KindTrace, trace1)
	if err != nil {
		t.Fatal(err)
	}
	if !created {
		t.Fatal("first upload not reported as created")
	}
	if _, created, err := s.AddArtifact(harness.KindTrace, trace1); err != nil || created {
		t.Errorf("duplicate upload: created=%v err=%v, want existing entry", created, err)
	}
	// A second capture of the same workload: same name, different bytes.
	a2, _, err := s.AddArtifact(harness.KindTrace, recordTraceScaled(t, "fft", 1.0))
	if err != nil {
		t.Fatal(err)
	}
	if a1.ID == a2.ID {
		t.Fatal("distinct captures share an ID")
	}
	if got, err := s.artifact(a1.ID); err != nil || got.ID != a1.ID {
		t.Errorf("exact ID lookup: %v, %v", got, err)
	}
	if got, err := s.artifact(a2.ID[:8]); err != nil || got.ID != a2.ID {
		t.Errorf("8-char prefix lookup: %v, %v", got, err)
	}
	if _, err := s.artifact(a1.ID[:7]); err == nil {
		t.Error("7-char prefix resolved; prefixes must be >= 8 chars")
	}
	if _, err := s.artifact("fft"); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("duplicate-name ref: err = %v, want ambiguous", err)
	}
	if _, err := s.artifact("nope"); err == nil {
		t.Error("unknown ref resolved")
	}

	spec, _, err := s.AddArtifact("", mustRead(t, "../../examples/specs/halo.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := s.artifact(spec.Name); err != nil || got.ID != spec.ID {
		t.Errorf("unique-name lookup: %v, %v", got, err)
	}
}

// recordTraceScaled is recordTrace at an explicit scale (distinct
// bytes, same embedded workload name).
func recordTraceScaled(t *testing.T, app string, scale float64) []byte {
	t.Helper()
	a, ok := workloads.ByName(app)
	if !ok {
		t.Fatalf("unknown app %q", app)
	}
	cfg := workloads.DefaultConfig()
	cfg.Scale = scale
	var buf bytes.Buffer
	if _, _, err := tracefile.WriteWorkload(&buf, a.Build(cfg), cfg); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSpecPastSegmentBoundFails uploads a spec whose region is one page
// past the shared-segment bound: its replay job must end failed with
// the bound named, rather than sizing a machine from the segment.
func TestSpecPastSegmentBoundFails(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	pages := addr.MaxSegmentBlocks/addr.Default.BlocksPerPage() + 1
	a := upload(t, ts, "", []byte(fmt.Sprintf(`{"name": "big",
  "regions": [{"name": "r", "pages": %d, "placement": "global"}],
  "phases": [{"steps": [{"op": "compute", "refs": 4, "gap": 10}]}]}`, pages)))
	info := submit(t, ts, JobRequest{Type: "replay", Artifact: a.ID, System: "ccnuma"})
	got := waitJob(t, ts, info.ID)
	bound := fmt.Sprintf("%d-block segment bound", addr.MaxSegmentBlocks)
	if got.Status != StatusFailed || !strings.Contains(got.Error, bound) {
		t.Errorf("replay of a spec past the segment bound: status %s, error %q; want failed naming the %s", got.Status, got.Error, bound)
	}
}

// TestSpecAndTrafficReplay covers the two non-trace replay paths: a
// workload spec and a multi-tenant traffic scenario (per-client table).
func TestSpecAndTrafficReplay(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	spec := upload(t, ts, "", mustRead(t, "../../examples/specs/halo.json"))
	info := submit(t, ts, JobRequest{Type: "replay", Artifact: spec.ID, System: "ccnuma"})
	if got := waitJob(t, ts, info.ID); got.Status != StatusDone {
		t.Fatalf("spec replay failed: %s", got.Error)
	}
	_, text := fetchReport(t, ts, info.ID, "")
	if !strings.Contains(text, "spec: halo") || !strings.Contains(text, "run: CC-NUMA") {
		t.Errorf("spec replay report:\n%s", text)
	}

	// A scenario referencing its spec by absolute path (uploaded
	// scenarios resolve phase paths against the daemon's cwd).
	dir := t.TempDir()
	specPath := filepath.Join(dir, "halo.json")
	if err := os.WriteFile(specPath, mustRead(t, "../../examples/specs/halo.json"), 0o644); err != nil {
		t.Fatal(err)
	}
	scenario := fmt.Sprintf(`{
  "name": "solo-mix",
  "clients": [
    {"name": "only", "rate_fraction": 1.0,
     "arrival": {"process": "poisson"},
     "phases": [{"spec": %q}]}
  ]
}`, specPath)
	art := upload(t, ts, "", []byte(scenario))
	if art.Kind != harness.KindTraffic {
		t.Fatalf("scenario sniffed as %s", art.Kind)
	}
	info = submit(t, ts, JobRequest{Type: "replay", Artifact: art.ID})
	if got := waitJob(t, ts, info.ID); got.Status != StatusDone {
		t.Fatalf("traffic replay failed: %s", got.Error)
	}
	_, text = fetchReport(t, ts, info.ID, "")
	if !strings.Contains(text, "traffic: ") || !strings.Contains(text, "CLIENTS") {
		t.Errorf("traffic replay report missing per-client table:\n%s", text)
	}
}

// TestPhaseFilesCheckedAtSubmit: a replay of an uploaded traffic scenario
// whose phase file the job could not read, missing or a directory,
// answers 422 naming the file instead of failing inside the job. The
// committed example scenarios answer 202 from a daemon whose working
// directory their relative phase paths resolve against.
func TestPhaseFilesCheckedAtSubmit(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	dir := t.TempDir()
	for _, tc := range []struct{ name, phase, want string }{
		{"gone", filepath.Join(dir, "absent.json"), "no such file"},
		{"dir", dir, "not a regular file"},
	} {
		a := upload(t, ts, "", []byte(fmt.Sprintf(`{"name": %q, "clients": [{"name": "a", "rate_fraction": 1.0,
  "arrival": {"process": "poisson"}, "phases": [{"spec": %q}]}]}`, tc.name, tc.phase)))
		code, msg := postJob(t, ts, fmt.Sprintf(`{"type":"replay","artifact":"%s"}`, a.ID))
		if code != http.StatusUnprocessableEntity || !strings.Contains(msg, tc.phase) || !strings.Contains(msg, tc.want) {
			t.Errorf("%s: %d %q, want 422 naming %s (%s)", tc.name, code, msg, tc.phase, tc.want)
		}
	}
	t.Chdir("../../examples/scenarios")
	for _, file := range []string{"steady-mix.json", "burst-collision.json"} {
		a := upload(t, ts, "", mustRead(t, file))
		info := submit(t, ts, JobRequest{Type: "replay", Artifact: a.ID})
		if got := waitJob(t, ts, info.ID); got.Status != StatusDone {
			t.Errorf("%s: %s %s", file, got.Status, got.Error)
		}
	}
}

// TestExperimentsJobs drives the figure job type: explicit figures and
// the figure-6 default (unknown figures answer 422 at submission, see
// TestSubmitValueErrors).
func TestExperimentsJobs(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	info := submit(t, ts, JobRequest{Type: "experiments", Figures: []string{"table4", "5"}, Apps: []string{"fft"}})
	if got := waitJob(t, ts, info.ID); got.Status != StatusDone {
		t.Fatalf("experiments job failed: %s", got.Error)
	}
	_, text := fetchReport(t, ts, info.ID, "")
	if !strings.Contains(text, "refetch@10%pg") {
		t.Errorf("report missing Table 4:\n%s", text)
	}
	var docs []json.RawMessage
	if err := json.Unmarshal([]byte(second(fetchReport(t, ts, info.ID, "json"))), &docs); err != nil {
		t.Fatal(err)
	}
	if len(docs) != 2 {
		t.Errorf("json report has %d figure docs, want 2", len(docs))
	}

	info = submit(t, ts, JobRequest{Type: "experiments", Apps: []string{"fft"}})
	if got := waitJob(t, ts, info.ID); got.Status != StatusDone {
		t.Fatalf("default experiments job failed: %s", got.Error)
	}
}

// TestProgressFollowAndOffsets covers the streaming mode and the
// offset-window reads of the plain poll mode.
func TestProgressFollowAndOffsets(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	a := upload(t, ts, "", recordTrace(t, "fft"))
	info := submit(t, ts, JobRequest{Type: "replay", Artifact: a.ID})

	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + info.ID + "/progress?follow=1")
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := io.ReadAll(resp.Body) // closes when the job finishes
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := waitJob(t, ts, info.ID); got.Status != StatusDone {
		t.Fatalf("job failed: %s", got.Error)
	}
	if !strings.Contains(string(streamed), "running") {
		t.Errorf("streamed progress missing run lines:\n%s", streamed)
	}

	// The whole buffer from offset 0, then nothing past the end.
	resp, err = http.Get(ts.URL + "/api/v1/jobs/" + info.ID + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	full, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	next := resp.Header.Get("X-Next-Offset")
	if len(full) == 0 || next == "0" {
		t.Fatalf("plain progress empty (next=%s)", next)
	}
	resp, err = http.Get(ts.URL + "/api/v1/jobs/" + info.ID + "/progress?offset=" + next)
	if err != nil {
		t.Fatal(err)
	}
	rest, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if len(rest) != 0 {
		t.Errorf("read past end returned %d bytes", len(rest))
	}
	if resp.Header.Get("X-Job-Status") != StatusDone {
		t.Errorf("X-Job-Status = %s", resp.Header.Get("X-Job-Status"))
	}

	resp, err = http.Get(ts.URL + "/api/v1/jobs/j999/progress")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job progress: %s, want 404", resp.Status)
	}
}

// TestUploadEdgeCases: empty bodies are rejected, explicit kinds are
// honored, and a spec uploaded as a trace fails validation.
func TestUploadEdgeCases(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, err := http.Post(ts.URL+"/api/v1/artifacts", "application/octet-stream", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty upload: %s, want 400", resp.Status)
	}

	spec := mustRead(t, "../../examples/specs/halo.json")
	resp, err = http.Post(ts.URL+"/api/v1/artifacts?kind=trace", "application/octet-stream", bytes.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("spec-as-trace upload: %s (%s), want 400", resp.Status, body)
	}

	resp, err = http.Post(ts.URL+"/api/v1/artifacts?kind=bogus", "application/octet-stream", bytes.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bogus kind: %s, want 400", resp.Status)
	}
}

func second(_ int, body string) string { return body }
