package workloads

import (
	"encoding/json"
	"io/fs"
	"testing"
)

// FuzzSpec asserts the JSON spec parser's contract on untrusted input
// (mirroring internal/tracefile's FuzzReader): malformed documents must
// surface as errors — never panics — and anything Parse accepts must be
// internally consistent: it validates, re-marshals, and re-parses to an
// equally valid spec. CI runs this for a short smoke window
// (`go test -fuzz=FuzzSpec -fuzztime=10s`); the unit-test mode replays
// the seed corpus on every `go test`.
func FuzzSpec(f *testing.F) {
	// Seed corpus: the documented example, a spec touching every op and
	// the new knobs (node subsets, zipf/explicit popularity), and a few
	// near-miss documents so the fuzzer starts at the validation edges.
	f.Add([]byte(`{
	  "name": "halo",
	  "regions": [
	    {"name": "frames", "pages": 60, "placement": "node"},
	    {"name": "table",  "pages": 8,  "placement": "global"}
	  ],
	  "phases": [
	    {"iters": 4, "scaled": true, "steps": [
	      {"op": "rewrite", "region": "frames", "density": 8, "gap": 6},
	      {"op": "sweep",   "region": "frames", "from": "neighbor:1", "density": 6, "gap": 30},
	      {"op": "shared",  "region": "table", "repeats": 2, "gap": 12},
	      {"op": "compute", "refs": 1500, "gap": 250},
	      {"op": "barrier"}
	    ]}
	  ]
	}`))
	f.Add([]byte(`{
	  "name": "all-ops",
	  "seed": 9,
	  "regions": [
	    {"name": "a", "pages": 4, "placement": "node"},
	    {"name": "g", "pages": 6, "placement": "global"}
	  ],
	  "phases": [
	    {"nodes": [0, 2], "steps": [
	      {"op": "scatter", "region": "a", "from": "all-remote", "density": 2},
	      {"op": "stride", "region": "g", "stride": 32, "count": 4},
	      {"op": "windowed", "region": "g", "window": 3, "sweeps": 2},
	      {"op": "popular", "region": "g", "dist": "zipf", "theta": 1.5, "picks": 10},
	      {"op": "popular", "region": "g", "dist": "explicit", "weights": [3, 1], "picks": 5},
	      {"op": "sweep", "region": "a", "from": "all", "hot": 2, "shuffle": true, "write": true},
	      {"op": "barrier"}
	    ]}
	  ]
	}`))
	f.Add([]byte(`{"name": "x", "regions": [{"name": "a", "pages": 1, "placement": "node"}], "phases": [{"steps": [{"op": "barrier"}]}]}`))
	f.Add([]byte(`{"name": "x", "regions": [{"name": "a", "pages": 1, "placement": "node"}], "phases": [{"nodes": [-1], "steps": [{"op": "barrier"}]}]}`))
	f.Add([]byte(`{"name": "x", "regions": [], "phases": []}`))
	f.Add([]byte(`{"name":`))
	f.Add([]byte(`[1, 2, 3]`))
	// Every catalog spec, so the fuzzer starts from each field the
	// catalog uses.
	paths, err := fs.Glob(catalogFiles, "catalog/*.json")
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range paths {
		data, err := catalogFiles.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}

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
		// document Parse accepts again (the struct carries no state the
		// JSON form cannot represent).
		out, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("marshal of accepted spec failed: %v", err)
		}
		if _, err := Parse(out); err != nil {
			t.Fatalf("re-parse of marshaled spec failed: %v\ndoc: %s", err, out)
		}
	})
}
