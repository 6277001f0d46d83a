package traffic

import (
	"encoding/json"
	"testing"
)

// FuzzTrafficSpec asserts the traffic-spec parser's contract on untrusted
// input (mirroring internal/workloads' FuzzSpec): malformed documents must
// surface as errors — never panics — and anything Parse accepts must be
// internally consistent: it validates, re-marshals, and re-parses to an
// equally valid spec. Parse never touches the filesystem, so phase paths
// in fuzz inputs are inert. CI runs this for a short smoke window
// (`go test -fuzz=FuzzTrafficSpec -fuzztime=10s`); the unit-test mode
// replays the seed corpus on every `go test`.
func FuzzTrafficSpec(f *testing.F) {
	// Seed corpus: a scenario touching every arrival process and load
	// shape, plus near-miss documents at the validation edges.
	f.Add([]byte(`{
	  "name": "mix",
	  "seed": 3,
	  "mean_gap": 48,
	  "clients": [
	    {"name": "steady", "rate_fraction": 0.6,
	     "arrival": {"process": "poisson"},
	     "phases": [{"spec": "halo.json"}]},
	    {"name": "bursty", "rate_fraction": 0.4,
	     "arrival": {"process": "gamma", "cv": 4},
	     "load": {"period": {"amplitude": 0.8, "cycles": 3, "phase": 0.25}},
	     "phases": [{"trace": "cap.trace", "repeat": 2}]},
	    {"name": "heavy", "rate_fraction": 1,
	     "arrival": {"process": "weibull", "shape": 0.7},
	     "load": {"ramp": {"from": 0.5, "to": 2, "over": 0.5}},
	     "phases": [{"spec": "a.json"}, {"spec": "b.json"}]}
	  ]
	}`))
	f.Add([]byte(`{"name": "x", "clients": [{"name": "a", "rate_fraction": 1, "arrival": {"process": "poisson"}, "phases": [{"spec": "s.json"}]}]}`))
	f.Add([]byte(`{"name": "x", "clients": [{"name": "a", "rate_fraction": 1.5, "arrival": {"process": "poisson"}, "phases": [{"spec": "s.json"}]}]}`))
	f.Add([]byte(`{"name": "x", "clients": [{"name": "a", "rate_fraction": 1, "arrival": {"process": "gamma"}, "phases": [{"spec": "s.json"}]}]}`))
	f.Add([]byte(`{"name": "x", "clients": [{"name": "a", "rate_fraction": 1, "arrival": {"process": "poisson"}, "phases": [{"spec": "s.json", "trace": "t.trace"}]}]}`))
	f.Add([]byte(`{"name": "x", "clients": []}`))
	f.Add([]byte(`{"name":`))
	f.Add([]byte(`[1, 2, 3]`))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		// Parse includes validation; an accepted spec must agree.
		if err := s.Validate(); err != nil {
			t.Fatalf("Parse accepted a spec Validate rejects: %v", err)
		}
		// Round-trip: re-marshaling an accepted spec must produce a
		// document Parse accepts again.
		out, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("marshal of accepted spec failed: %v", err)
		}
		if _, err := Parse(out); err != nil {
			t.Fatalf("re-parse of marshaled spec failed: %v\ndoc: %s", err, out)
		}
	})
}
