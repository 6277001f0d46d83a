package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rnuma/internal/harness"
	"rnuma/internal/report"
	"rnuma/internal/tracefile"
	"rnuma/internal/workloads"
)

// TestGridJob drives a grid job end to end: cold submission simulates,
// the report carries the heat map and knee conclusions in text and the
// GridDoc in JSON, and a warm resubmission reports 0 simulations with a
// byte-identical report.
func TestGridJob(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	a := upload(t, ts, harness.KindTrace, recordTraceScaled(t, "fft", 0.02))

	req := JobRequest{
		Type:     "grid",
		Artifact: a.ID,
		Axis:     "block",
		Values:   "16,32",
		AxisB:    "threshold",
		ValuesB:  "16,64",
	}
	info := waitJob(t, ts, submit(t, ts, req).ID)
	if info.Status != StatusDone {
		t.Fatalf("grid job: %s (%s)", info.Status, info.Error)
	}
	if info.Simulations == 0 {
		t.Error("cold grid job reported 0 simulations")
	}

	code, text := fetchReport(t, ts, info.ID, "")
	if code != http.StatusOK {
		t.Fatalf("report: %d: %s", code, text)
	}
	for _, want := range []string{"GRID — fft: block (x) x threshold (y)", "heat map (R-NUMA/best):", "knees (R-NUMA/best bound 1.10):", "worst cell:"} {
		if !strings.Contains(text, want) {
			t.Errorf("grid report missing %q (report:\n%s)", want, text)
		}
	}

	code, body := fetchReport(t, ts, info.ID, "json")
	if code != http.StatusOK {
		t.Fatalf("json report: %d: %s", code, body)
	}
	var doc report.GridDoc
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("decode GridDoc: %v", err)
	}
	if doc.Workload != "fft" || doc.AxisX != "block" || doc.AxisY != "threshold" {
		t.Errorf("doc identity = %q %s x %s", doc.Workload, doc.AxisX, doc.AxisY)
	}
	if len(doc.Cells) != 2 || len(doc.Cells[0]) != 2 || len(doc.Knees) != 4 {
		t.Errorf("doc shape: %dx%d cells, %d knees", len(doc.Cells), len(doc.Cells[0]), len(doc.Knees))
	}
	if doc.WorstRNUMAOverBest <= 0 {
		t.Errorf("worst ratio = %v", doc.WorstRNUMAOverBest)
	}

	// Warm resubmission: every cell is already in the shared store.
	warm := waitJob(t, ts, submit(t, ts, req).ID)
	if warm.Status != StatusDone {
		t.Fatalf("warm grid job: %s (%s)", warm.Status, warm.Error)
	}
	if warm.Simulations != 0 {
		t.Errorf("warm grid job ran %d simulations, want 0", warm.Simulations)
	}
	if _, warmText := fetchReport(t, ts, warm.ID, ""); warmText != text {
		t.Error("warm grid report differs from the cold report")
	}
}

// TestSubmitValueErrors pins the 422 surface: requests whose fields are
// present but unparseable or unknown — axis values, systems, figures,
// applications, inputs of the wrong kind — or whose sweep points or grid
// cells the trace rejects answer 422 naming the offending token, while
// structurally incomplete requests stay 400.
// postJob submits a raw job body and returns the status code and the
// error message, if any.
func postJob(t *testing.T, ts *httptest.Server, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var msg struct {
		Error string `json:"error"`
	}
	json.NewDecoder(resp.Body).Decode(&msg) //nolint:errcheck // error bodies only
	return resp.StatusCode, msg.Error
}

func TestSubmitValueErrors(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	a := upload(t, ts, harness.KindTrace, recordTraceScaled(t, "fft", 0.02))
	spec := upload(t, ts, "", mustRead(t, "../../examples/specs/halo.json"))

	for _, tc := range []struct {
		name, body string
		code       int
		token      string
	}{
		{"sweep bad value", fmt.Sprintf(`{"type":"sweep","artifact":"%s","axis":"nodes","values":"4,x"}`, a.ID), 422, `"x"`},
		{"sweep bad axis", fmt.Sprintf(`{"type":"sweep","artifact":"%s","axis":"warp","values":"4"}`, a.ID), 422, `"warp"`},
		{"sweep empty values", fmt.Sprintf(`{"type":"sweep","artifact":"%s","axis":"nodes","values":","}`, a.ID), 422, `","`},
		{"grid bad valuesB", fmt.Sprintf(`{"type":"grid","artifact":"%s","axis":"block","values":"16,32","axisB":"threshold","valuesB":"16,zap"}`, a.ID), 422, `"zap"`},
		{"grid bad dilate ratio", fmt.Sprintf(`{"type":"grid","artifact":"%s","axis":"dilate","values":"1/0","axisB":"threshold","valuesB":"16"}`, a.ID), 422, `"1/0"`},
		{"grid equal axes", fmt.Sprintf(`{"type":"grid","artifact":"%s","axis":"block","values":"16","axisB":"block","valuesB":"32"}`, a.ID), 422, "differ"},
		{"grid bad bound", fmt.Sprintf(`{"type":"grid","artifact":"%s","axis":"block","values":"16","axisB":"threshold","valuesB":"32","kneeBound":-1}`, a.ID), 422, "kneeBound"},
		{"grid missing axisB", fmt.Sprintf(`{"type":"grid","artifact":"%s","axis":"block","values":"16"}`, a.ID), 400, "grid needs"},
		{"grid unknown artifact", `{"type":"grid","artifact":"nope","axis":"block","values":"16","axisB":"threshold","valuesB":"32"}`, 400, `"nope"`},
		{"replay unknown system", fmt.Sprintf(`{"type":"replay","artifact":"%s","system":"doom"}`, a.ID), 422, `"doom"`},
		{"diffstats unknown system", fmt.Sprintf(`{"type":"diffstats","artifact":"%s","artifactB":"%s","system":"doom"}`, a.ID, a.ID), 422, `"doom"`},
		{"diffstats unknown systemB", fmt.Sprintf(`{"type":"diffstats","artifact":"%s","artifactB":"%s","systemB":"warp"}`, a.ID, a.ID), 422, `"warp"`},
		{"diffstats spec side", fmt.Sprintf(`{"type":"diffstats","artifact":"%s","artifactB":"%s"}`, a.ID, spec.ID), 422, "needs a trace"},
		{"sweep over a spec", fmt.Sprintf(`{"type":"sweep","artifact":"%s","axis":"nodes","values":"4"}`, spec.ID), 422, "needs a trace"},
		{"sweep block not a power of two", fmt.Sprintf(`{"type":"sweep","artifact":"%s","axis":"block","values":"16,24"}`, a.ID), 422, "block 24"},
		{"sweep nodes not dividing the cpus", fmt.Sprintf(`{"type":"sweep","artifact":"%s","axis":"nodes","values":"4,3"}`, a.ID), 422, "3 nodes"},
		{"sweep threshold zero", fmt.Sprintf(`{"type":"sweep","artifact":"%s","axis":"threshold","values":"0,16"}`, a.ID), 422, "threshold 0"},
		{"grid cell past its X variant", fmt.Sprintf(`{"type":"grid","artifact":"%s","axis":"page","values":"256","axisB":"block","valuesB":"16,512"}`, a.ID), 422, "block 512 on fft@page256"},
		{"experiments unknown figure", `{"type":"experiments","figures":["6","12"]}`, 422, `"12"`},
		{"experiments unknown app", `{"type":"experiments","apps":["fft","doom"]}`, 422, `"doom"`},
		{"experiments removed extension app", `{"type":"experiments","apps":["phaseshift"]}`, 422, `"phaseshift"`},
	} {
		code, msg := postJob(t, ts, tc.body)
		if code != tc.code {
			t.Errorf("%s: %d (%s), want %d", tc.name, code, msg, tc.code)
		}
		if !strings.Contains(msg, tc.token) {
			t.Errorf("%s: error %q does not name %s", tc.name, msg, tc.token)
		}
	}
}

// undividedCapture records fft at scale 0.02 under a header that puts
// its 32 CPUs on 3 nodes: the header validates, but no machine replays
// the capture as recorded.
func undividedCapture(t *testing.T) []byte {
	t.Helper()
	app, _ := workloads.ByName("fft")
	cfg := workloads.DefaultConfig()
	cfg.Scale = 0.02
	wl := app.Build(cfg)
	hdr := tracefile.WorkloadHeader(wl, cfg)
	hdr.Name, hdr.Nodes = "odd", 3
	for i, home := range hdr.Homes {
		hdr.Homes[i] = home % 3
	}
	var buf bytes.Buffer
	tw, err := tracefile.NewWriter(&buf, hdr)
	if err != nil {
		t.Fatal(err)
	}
	for cpu, s := range wl.Streams {
		for r, ok := s.Next(); ok; r, ok = s.Next() {
			if err := tw.Append(cpu, r); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestUndividedShapeRejectedAtSubmit: a capture whose 3 nodes do not
// divide its 32 CPUs uploads, but a replay or diffstats of it, and any
// sweep point or grid cell that replays it on its recorded nodes, answer
// 422 at submit; nodes points retarget it to a dividing shape and run.
func TestUndividedShapeRejectedAtSubmit(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	odd := upload(t, ts, harness.KindTrace, undividedCapture(t))
	if odd.Nodes != 3 || odd.CPUs != 32 {
		t.Fatalf("uploaded %d nodes / %d cpus, want 3 / 32", odd.Nodes, odd.CPUs)
	}
	fft := upload(t, ts, harness.KindTrace, recordTraceScaled(t, "fft", 0.02))
	for _, tc := range []struct{ name, body string }{
		{"replay", `{"type":"replay","artifact":"%[1]s"}`},
		{"diffstats", `{"type":"diffstats","artifact":"%[1]s","artifactB":"%[2]s"}`},
		{"diffstats second side", `{"type":"diffstats","artifact":"%[2]s","artifactB":"%[1]s"}`},
		{"threshold sweep", `{"type":"sweep","artifact":"%[1]s","axis":"threshold","values":"16,64"}`},
		{"dilate sweep", `{"type":"sweep","artifact":"%[1]s","axis":"dilate","values":"1,2"}`},
		{"page sweep", `{"type":"sweep","artifact":"%[1]s","axis":"page","values":"8192"}`},
		{"dilate x threshold grid", `{"type":"grid","artifact":"%[1]s","axis":"dilate","values":"2","axisB":"threshold","valuesB":"16"}`},
		{"threshold x block grid", `{"type":"grid","artifact":"%[1]s","axis":"threshold","values":"16","axisB":"block","valuesB":"64"}`},
	} {
		code, msg := postJob(t, ts, fmt.Sprintf(tc.body, odd.ID, fft.ID))
		if code != http.StatusUnprocessableEntity || !strings.Contains(msg, "32 CPUs on 3 nodes") {
			t.Errorf("%s: %d %q, want 422 naming the shape", tc.name, code, msg)
		}
	}
	for _, req := range []JobRequest{
		{Type: "sweep", Artifact: odd.ID, Axis: "nodes", Values: "4,8"},
		{Type: "grid", Artifact: odd.ID, Axis: "dilate", Values: "2", AxisB: "nodes", ValuesB: "4"},
	} {
		info := submit(t, ts, req)
		if got := waitJob(t, ts, info.ID); got.Status != StatusDone {
			t.Errorf("%s %s x %s over the undivided capture: %s %s", req.Type, req.Axis, req.AxisB, got.Status, got.Error)
		}
	}
}
