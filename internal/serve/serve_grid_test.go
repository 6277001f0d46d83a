package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"rnuma/internal/report"
)

// TestGridJob drives a grid job end to end: cold submission simulates,
// the report carries the heat map and knee conclusions in text and the
// GridDoc in JSON, and a warm resubmission reports 0 simulations with a
// byte-identical report.
func TestGridJob(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	a := upload(t, ts, KindTrace, recordTraceScaled(t, "fft", 0.02))

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
// applications, inputs of the wrong kind — answer 422 naming the
// offending token, while structurally incomplete requests stay 400.
func TestSubmitValueErrors(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	a := upload(t, ts, KindTrace, recordTraceScaled(t, "fft", 0.02))
	spec := upload(t, ts, "", mustRead(t, "../../examples/specs/halo.json"))

	post := func(body string) (int, string) {
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
		{"experiments unknown figure", `{"type":"experiments","figures":["6","12"]}`, 422, `"12"`},
		{"experiments unknown app", `{"type":"experiments","apps":["fft","doom"]}`, 422, `"doom"`},
	} {
		code, msg := post(tc.body)
		if code != tc.code {
			t.Errorf("%s: %d (%s), want %d", tc.name, code, msg, tc.code)
		}
		if !strings.Contains(msg, tc.token) {
			t.Errorf("%s: error %q does not name %s", tc.name, msg, tc.token)
		}
	}
}
