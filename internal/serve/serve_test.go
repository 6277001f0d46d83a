package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rnuma/internal/harness"
	"rnuma/internal/tracefile"
	"rnuma/internal/workloads"
)

const testScale = 0.05

// recordTrace encodes a catalog application's streams at the base shape.
func recordTrace(t *testing.T, app string) []byte {
	t.Helper()
	a, ok := workloads.ByName(app)
	if !ok {
		t.Fatalf("unknown app %q", app)
	}
	cfg := workloads.DefaultConfig()
	cfg.Scale = testScale
	var buf bytes.Buffer
	if _, _, err := tracefile.WriteWorkload(&buf, a.Build(cfg), cfg); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// newTestServer starts a server over httptest; opts.Scale defaults to
// the test scale.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.Scale == 0 {
		opts.Scale = testScale
	}
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func upload(t *testing.T, ts *httptest.Server, kind string, data []byte) Artifact {
	t.Helper()
	resp, err := http.Post(ts.URL+"/api/v1/artifacts?kind="+kind, "application/octet-stream", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("upload: %s: %s", resp.Status, body)
	}
	var a Artifact
	if err := json.NewDecoder(resp.Body).Decode(&a); err != nil {
		t.Fatal(err)
	}
	return a
}

func submit(t *testing.T, ts *httptest.Server, req JobRequest) JobInfo {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: %s: %s", resp.Status, b)
	}
	var info JobInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info
}

// waitJob polls until the job leaves queued/running.
func waitJob(t *testing.T, ts *httptest.Server, id string) JobInfo {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/api/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var info JobInfo
		err = json.NewDecoder(resp.Body).Decode(&info)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if info.Status == StatusDone || info.Status == StatusFailed {
			return info
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return JobInfo{}
}

func fetchReport(t *testing.T, ts *httptest.Server, id, format string) (int, string) {
	t.Helper()
	url := ts.URL + "/api/v1/jobs/" + id + "/report"
	if format != "" {
		url += "?format=" + format
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestUploadDedup: artifacts are content-addressed — a re-upload returns
// the existing entry, and sniffing classifies a binary trace without an
// explicit kind.
func TestUploadDedup(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	data := recordTrace(t, "fft")

	a1 := upload(t, ts, harness.KindTrace, data)
	if a1.Kind != harness.KindTrace || a1.Name != "fft" || a1.Nodes != 8 {
		t.Fatalf("artifact = %+v", a1)
	}
	a2 := upload(t, ts, "", data) // sniffed
	if a2.ID != a1.ID || a2.Kind != harness.KindTrace {
		t.Errorf("re-upload: got %s/%s, want same artifact %s", a2.ID, a2.Kind, a1.ID)
	}

	resp, err := http.Post(ts.URL+"/api/v1/artifacts?kind=trace", "application/octet-stream",
		strings.NewReader("definitely not a trace"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad trace upload: %s, want 400", resp.Status)
	}
}

// TestReplayMemoization is the warm-resubmission acceptance check: the
// second identical replay job executes zero new simulations and returns
// a byte-identical report.
func TestReplayMemoization(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	a := upload(t, ts, harness.KindTrace, recordTrace(t, "fft"))

	req := JobRequest{Type: "replay", Artifact: a.ID, System: "rnuma", Normalize: true}
	j1 := waitJob(t, ts, submit(t, ts, req).ID)
	if j1.Status != StatusDone {
		t.Fatalf("job 1: %+v", j1)
	}
	if j1.Simulations == 0 {
		t.Fatal("cold replay reported zero simulations")
	}
	code, r1 := fetchReport(t, ts, j1.ID, "text")
	if code != http.StatusOK {
		t.Fatalf("report: %d: %s", code, r1)
	}
	if !strings.Contains(r1, "run: R-NUMA") || !strings.Contains(r1, "normalized exec time:") {
		t.Errorf("report missing expected sections:\n%s", r1)
	}

	j2 := waitJob(t, ts, submit(t, ts, req).ID)
	if j2.Status != StatusDone {
		t.Fatalf("job 2: %+v", j2)
	}
	if j2.Simulations != 0 {
		t.Errorf("warm replay executed %d simulations, want 0", j2.Simulations)
	}
	if _, r2 := fetchReport(t, ts, j2.ID, "text"); r2 != r1 {
		t.Errorf("warm report differs from cold report:\n--- cold\n%s\n--- warm\n%s", r1, r2)
	}

	// Progress of the cold job carried the harness's log lines.
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + j1.ID + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.Header.Get("X-Job-Status") != StatusDone {
		t.Errorf("X-Job-Status = %q", resp.Header.Get("X-Job-Status"))
	}
	if !strings.Contains(string(body), "running") {
		t.Errorf("progress stream missing log lines: %q", body)
	}
}

// TestConcurrentSweepsSingleflight is the tentpole acceptance check: N
// concurrent identical sweep submissions run each point's simulations
// exactly once between them, and every report — plus a later serial
// resubmission — is byte-identical.
func TestConcurrentSweepsSingleflight(t *testing.T) {
	s, ts := newTestServer(t, Options{MaxJobs: 8})
	a := upload(t, ts, harness.KindTrace, recordTrace(t, "fft"))
	req := JobRequest{Type: "sweep", Artifact: a.ID, Axis: "nodes", Values: "4,8"}

	const n = 4
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ids[i] = submit(t, ts, req).ID
		}(i)
	}
	wg.Wait()

	// 2 points x 4 systems (ideal baseline + CC-NUMA + S-COMA + R-NUMA).
	const wantSims = 8
	var total int64
	reports := make([]string, n)
	for i, id := range ids {
		info := waitJob(t, ts, id)
		if info.Status != StatusDone {
			t.Fatalf("job %s: %+v", id, info)
		}
		total += info.Simulations
		_, reports[i] = fetchReport(t, ts, id, "text")
	}
	if total != wantSims {
		t.Errorf("total simulations across %d concurrent identical sweeps = %d, want %d", n, total, wantSims)
	}
	if st := s.Store().Stats(); st.Started != wantSims {
		t.Errorf("store started %d simulations, want %d", st.Started, wantSims)
	}
	for i := 1; i < n; i++ {
		if reports[i] != reports[0] {
			t.Errorf("concurrent report %d differs:\n--- 0\n%s\n--- %d\n%s", i, reports[0], i, reports[i])
		}
	}

	// A serial resubmission is fully warm and byte-identical.
	j := waitJob(t, ts, submit(t, ts, req).ID)
	if j.Simulations != 0 {
		t.Errorf("serial resubmission executed %d simulations, want 0", j.Simulations)
	}
	if _, r := fetchReport(t, ts, j.ID, "text"); r != reports[0] {
		t.Errorf("serial report differs from concurrent reports:\n%s", r)
	}
}

// TestDiskStoreRestartAcrossServers: a second server over the same
// -store-dir re-simulates nothing and reproduces the report byte for
// byte.
func TestDiskStoreRestartAcrossServers(t *testing.T) {
	dir := t.TempDir()
	data := recordTrace(t, "fft")
	req := func(id string) JobRequest {
		return JobRequest{Type: "replay", Artifact: id, System: "rnuma", Normalize: true}
	}

	ds1, err := harness.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts1 := newTestServer(t, Options{Store: ds1})
	a1 := upload(t, ts1, harness.KindTrace, data)
	j1 := waitJob(t, ts1, submit(t, ts1, req(a1.ID)).ID)
	if j1.Status != StatusDone || j1.Simulations == 0 {
		t.Fatalf("cold job: %+v", j1)
	}
	_, r1 := fetchReport(t, ts1, j1.ID, "text")

	ds2, err := harness.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts2 := newTestServer(t, Options{Store: ds2})
	a2 := upload(t, ts2, harness.KindTrace, data)
	j2 := waitJob(t, ts2, submit(t, ts2, req(a2.ID)).ID)
	if j2.Status != StatusDone {
		t.Fatalf("warm job: %+v", j2)
	}
	if j2.Simulations != 0 {
		t.Errorf("restarted server executed %d simulations, want 0 (disk hits)", j2.Simulations)
	}
	if _, r2 := fetchReport(t, ts2, j2.ID, "text"); r2 != r1 {
		t.Errorf("report across restart differs:\n--- before\n%s\n--- after\n%s", r1, r2)
	}
	if st := ds2.Stats(); st.DiskHits == 0 {
		t.Error("restarted store reported no disk hits")
	}
}

// TestDiffstatsIdentical: diffing an artifact against itself under one
// system reports identity.
func TestDiffstatsIdentical(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	a := upload(t, ts, harness.KindTrace, recordTrace(t, "fft"))
	j := waitJob(t, ts, submit(t, ts, JobRequest{
		Type: "diffstats", Artifact: a.ID, ArtifactB: a.ID, System: "rnuma",
	}).ID)
	if j.Status != StatusDone {
		t.Fatalf("job: %+v", j)
	}
	_, r := fetchReport(t, ts, j.ID, "text")
	if !strings.Contains(r, "runs are identical") {
		t.Errorf("self-diff not identical:\n%s", r)
	}

	// Different systems must differ.
	j2 := waitJob(t, ts, submit(t, ts, JobRequest{
		Type: "diffstats", Artifact: a.ID, ArtifactB: a.ID, System: "ccnuma", SystemB: "scoma",
	}).ID)
	_, r2 := fetchReport(t, ts, j2.ID, "text")
	if !strings.Contains(r2, "runs differ") {
		t.Errorf("cross-system diff reported identical:\n%s", r2)
	}
}

// TestJSONReports: the JSON report documents decode and carry the same
// results the text renderers print.
func TestJSONReports(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	a := upload(t, ts, harness.KindTrace, recordTrace(t, "fft"))

	jr := waitJob(t, ts, submit(t, ts, JobRequest{Type: "replay", Artifact: a.ID, System: "rnuma"}).ID)
	code, body := fetchReport(t, ts, jr.ID, "json")
	if code != http.StatusOK {
		t.Fatalf("json report: %d: %s", code, body)
	}
	var runDoc struct {
		Name   string `json:"name"`
		System string `json:"system"`
		Run    struct {
			ExecCycles int64 `json:"ExecCycles"`
			Refs       int64 `json:"refs"`
		} `json:"run"`
	}
	if err := json.Unmarshal([]byte(body), &runDoc); err != nil {
		t.Fatalf("decode run doc: %v\n%s", err, body)
	}
	if runDoc.System != "R-NUMA" || runDoc.Run.ExecCycles <= 0 || runDoc.Run.Refs <= 0 {
		t.Errorf("run doc = %+v", runDoc)
	}
	// encoding/json matches keys case-insensitively, so the decode above
	// passes under either spelling; pin the raw keys. The windowed
	// counters are spelled as in timelines, the rest as stats.Run's
	// field names.
	for _, key := range []string{`"ExecCycles":`, `"refs":`, `"l1Hits":`, `"allocations":`, `"writebacksHome":`, `"C2CTransfers":`} {
		if !strings.Contains(body, key) {
			t.Errorf("run doc lacks key %s", key)
		}
	}
	for _, key := range []string{`"Refs":`, `"L1Hits":`, `"Allocations":`, `"Counters":`} {
		if strings.Contains(body, key) {
			t.Errorf("run doc has key %s", key)
		}
	}

	// A delta doc names every counter by its Go field name, so a windowed
	// counter's name there is not its run doc key: "Allocations" against
	// "allocations" above (CC-NUMA allocates no frames, S-COMA does).
	jd := waitJob(t, ts, submit(t, ts, JobRequest{
		Type: "diffstats", Artifact: a.ID, ArtifactB: a.ID, System: "ccnuma", SystemB: "scoma",
	}).ID)
	_, body = fetchReport(t, ts, jd.ID, "json")
	var deltaDoc struct {
		Counters []struct {
			Name string `json:"Name"`
		} `json:"counters"`
	}
	if err := json.Unmarshal([]byte(body), &deltaDoc); err != nil {
		t.Fatalf("decode delta doc: %v\n%s", err, body)
	}
	found := false
	for _, c := range deltaDoc.Counters {
		found = found || c.Name == "Allocations"
	}
	if !found {
		t.Errorf("delta doc has no counter named Allocations: %+v", deltaDoc.Counters)
	}

	js := waitJob(t, ts, submit(t, ts, JobRequest{Type: "sweep", Artifact: a.ID, Axis: "nodes", Values: "4,8"}).ID)
	_, body = fetchReport(t, ts, js.ID, "json")
	var sweepDoc struct {
		Workload string `json:"workload"`
		Axis     string `json:"axis"`
		Points   []struct {
			Label string  `json:"label"`
			RNUMA float64 `json:"rnuma"`
		} `json:"points"`
	}
	if err := json.Unmarshal([]byte(body), &sweepDoc); err != nil {
		t.Fatalf("decode sweep doc: %v\n%s", err, body)
	}
	if sweepDoc.Axis != "nodes" || len(sweepDoc.Points) != 2 {
		t.Errorf("sweep doc = %+v", sweepDoc)
	}
	for _, p := range sweepDoc.Points {
		if p.RNUMA <= 0 {
			t.Errorf("point %q has non-positive R-NUMA time", p.Label)
		}
	}
}

// TestAPIErrors covers the failure surface: bad submissions, unknown
// jobs, bad formats, and failed jobs' reports.
func TestAPIErrors(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	post := func(body string) int {
		resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(`{"type":"warp"}`); code != http.StatusBadRequest {
		t.Errorf("unknown type: %d, want 400", code)
	}
	if code := post(`{"type":"replay","artifact":"nope"}`); code != http.StatusBadRequest {
		t.Errorf("unknown artifact: %d, want 400", code)
	}
	a := upload(t, ts, harness.KindTrace, recordTrace(t, "fft"))
	if code := post(fmt.Sprintf(`{"type":"sweep","artifact":"%s"}`, a.ID)); code != http.StatusBadRequest {
		t.Errorf("sweep without axis: %d, want 400", code)
	}

	if code, _ := fetchReport(t, ts, "j999", ""); code != http.StatusNotFound {
		t.Errorf("report of unknown job: %d, want 404", code)
	}
	j := waitJob(t, ts, submit(t, ts, JobRequest{Type: "replay", Artifact: a.ID}).ID)
	if code, _ := fetchReport(t, ts, j.ID, "yaml"); code != http.StatusBadRequest {
		t.Errorf("bad format: %d, want 400", code)
	}

	// A point the trace rejects (32 CPUs do not fold onto 5 nodes) is
	// refused at submission, from the trace's header.
	if code := post(fmt.Sprintf(`{"type":"sweep","artifact":"%s","axis":"nodes","values":"5"}`, a.ID)); code != http.StatusUnprocessableEntity {
		t.Errorf("5-node sweep of a 32-CPU capture: %d, want 422", code)
	}

	// A job that resolves but fails at run time (a trace whose header
	// parses but whose records are cut short): the job records the error
	// and its report answers 422.
	data := recordTrace(t, "fft")
	cut := upload(t, ts, harness.KindTrace, data[:len(data)*2/3])
	j = waitJob(t, ts, submit(t, ts, JobRequest{Type: "sweep", Artifact: cut.ID, Axis: "nodes", Values: "4"}).ID)
	if j.Status != StatusFailed || j.Error == "" {
		t.Errorf("sweep of a truncated capture: %+v, want failed", j)
	}
	if code, _ := fetchReport(t, ts, j.ID, ""); code != http.StatusUnprocessableEntity {
		t.Errorf("failed job report: %d, want 422", code)
	}

	resp, err := http.Get(ts.URL + "/api/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: %d", resp.StatusCode)
	}
}
