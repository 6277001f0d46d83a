// Package workloads builds the reference streams the simulated machine
// runs from declarative JSON specs, so a new memory-system scenario needs
// a file rather than a code change. The ten applications of the paper's
// Table 3 (eight SPLASH-2 programs plus em3d and moldyn) are specs too:
// catalog/*.json, embedded and listed by Catalog.
//
// The paper drives its evaluation with execution-driven simulation of the
// real binaries; reproducing that would require a SPARC ISA simulator and
// the original sources. Instead, each catalog spec reproduces the
// *memory-system characteristics the paper's analysis attributes the
// results to* — remote working-set size relative to the block and page
// caches, the reuse/communication page split (Section 3), read-write
// sharing fractions (Table 4), page density (sparse pages thrash the page
// cache, Section 2.2), and per-node load imbalance (lu, Section 5.5).
// Each spec's description quotes the paper passage it encodes; the
// README's catalog table gives the reason for each constant.
//
// A spec names memory regions (per-node or globally interleaved page
// ranges) and a sequence of phases; each phase repeats a list of steps
// that apply an access-pattern primitive (sweep, shared sweep, scatter,
// strided, windowed, rewrite, weighted-popularity draws, local compute,
// barrier) to a selection of pages. A phase may restrict its steps to a
// subset of nodes ("nodes": [0, 1]), and the "popular" op draws pages
// under a zipf or explicit-weight popularity distribution — the skewed
// reuse sets of Figure 5. The result is a Workload: it runs on the
// simulated machine, records to a trace file, and schedules through the
// experiment harness.
//
// Example (a producer-consumer halo exchange with a hot shared table):
//
//	{
//	  "name": "halo",
//	  "regions": [
//	    {"name": "frames", "pages": 60, "placement": "node"},
//	    {"name": "table",  "pages": 8,  "placement": "global"}
//	  ],
//	  "phases": [
//	    {"iters": 4, "scaled": true, "steps": [
//	      {"op": "rewrite", "region": "frames", "density": 8, "gap": 6},
//	      {"op": "sweep",   "region": "frames", "from": "neighbor:1", "density": 6, "gap": 30},
//	      {"op": "shared",  "region": "table", "repeats": 2, "gap": 12},
//	      {"op": "compute", "refs": 1500, "gap": 250},
//	      {"op": "barrier"}
//	    ]}
//	  ]
//	}
package workloads

import (
	"embed"
	"fmt"

	"rnuma/internal/addr"
	"rnuma/internal/trace"
)

// Config sizes a workload for a machine.
type Config struct {
	Nodes       int
	CPUsPerNode int
	Geometry    addr.Geometry

	// Scale multiplies iteration counts (never footprints: footprints
	// determine cache fit, the heart of every result). Scale 1.0 is the
	// evaluation size; tests use smaller values. Values <= 0 mean 1.0.
	Scale float64

	// Seed perturbs the builders' RNG streams. The default 0 keeps each
	// spec's own seed, so workloads — and therefore recorded traces — are
	// bit-reproducible across runs by default. A nonzero value is XORed
	// into the spec's seed, producing a different but equally
	// reproducible variant.
	Seed int64
}

// DefaultConfig is the paper's 8-node, 4-CPU base machine.
func DefaultConfig() Config {
	return Config{Nodes: 8, CPUsPerNode: 4, Geometry: addr.Default, Scale: 1.0}
}

// iters scales an iteration count by the config's Scale (minimum 2, so
// every workload keeps its steady-state structure at test scales).
func (c Config) iters(n int) int {
	s := c.Scale
	if s <= 0 {
		s = 1
	}
	v := int(float64(n)*s + 0.5)
	if v < 2 {
		v = 2
	}
	return v
}

// Validate reports malformed configs.
func (c Config) Validate() error {
	if c.Nodes < 1 || c.CPUsPerNode < 1 {
		return fmt.Errorf("workloads: config needs at least 1 node and 1 CPU/node, got %dx%d", c.Nodes, c.CPUsPerNode)
	}
	return nil
}

// Workload is a fully generated run: one stream per CPU plus page homes.
type Workload struct {
	Name        string
	Streams     []trace.Stream
	Homes       func(addr.PageNum) addr.NodeID
	SharedPages int // total pages in the shared segment

	// Check, if non-nil, reports whether the streams were delivered
	// intact; replayed traces use it to surface I/O or decode errors that
	// a trace.Stream (which cannot return an error) would otherwise
	// silently truncate into a shorter run.
	Check func() error

	// Attribution, if non-nil, maps every record back to the traffic
	// client that issued it (compiled multi-tenant scenarios); the
	// machine splits the run's counters per client when it is present.
	Attribution *trace.Attribution

	// refs are the per-CPU references behind Streams (nil for workloads
	// neither built from a spec nor made by FromRefs).
	refs [][]trace.Ref
}

// Fresh returns a copy of a spec-built (or FromRefs) workload whose
// streams are new cursors at the start of the reference slices. One build
// can then drive any number of simulations, concurrently too: the slices
// and the home map are only ever read. Every catalog application is
// spec-built; Fresh panics on a workload that is not.
func (w *Workload) Fresh() *Workload {
	if w.refs == nil {
		panic(fmt.Sprintf("workloads: Fresh on %q, which no spec built", w.Name))
	}
	cp := *w
	cp.Streams = make([]trace.Stream, len(w.refs))
	for i, r := range w.refs {
		cp.Streams[i] = trace.FromSlice(r)
	}
	return &cp
}

// FromRefs wraps per-CPU reference slices — a decoded trace, say — as a
// workload that Fresh replays like a spec-built one. The slices are only
// ever read.
func FromRefs(name string, refs [][]trace.Ref, homes func(addr.PageNum) addr.NodeID, sharedPages int) *Workload {
	w := &Workload{Name: name, Homes: homes, SharedPages: sharedPages, refs: refs}
	return w.Fresh()
}

// ResolveHomes materializes the workload's home function into a dense
// per-page slice covering the shared segment (trace recording needs the
// placement as data, not code).
func (w *Workload) ResolveHomes() []addr.NodeID {
	out := make([]addr.NodeID, w.SharedPages)
	for p := range out {
		out[p] = w.Homes(addr.PageNum(p))
	}
	return out
}

// App is a catalog application: a Table 3 name and its embedded spec.
type App struct {
	Name string
	spec *Spec
}

// Build builds the application for a machine. The catalog's specs are
// validated when the package loads, so only a malformed config fails,
// and Build panics on it: a config is the caller's to validate.
func (a App) Build(cfg Config) *Workload {
	w, err := a.spec.Build(cfg)
	if err != nil {
		panic(fmt.Sprintf("workloads: %s: %v", a.Name, err))
	}
	return w
}

//go:embed catalog/*.json
var catalogFiles embed.FS

// catalog holds the Table 3 applications, each spec parsed once. Table 3
// lists them alphabetically, the order the embedded directory reads in.
var catalog = func() []App {
	files, err := catalogFiles.ReadDir("catalog")
	if err != nil {
		panic(err)
	}
	apps := make([]App, len(files))
	for i, f := range files {
		data, err := catalogFiles.ReadFile("catalog/" + f.Name())
		if err != nil {
			panic(err)
		}
		s, err := Parse(data)
		if err != nil {
			panic(fmt.Sprintf("workloads: catalog/%s: %v", f.Name(), err))
		}
		apps[i] = App{Name: s.Name, spec: s}
	}
	return apps
}()

// Catalog returns the ten applications in Table 3's order.
func Catalog() []App { return append([]App(nil), catalog...) }

// ByName finds an application in the Table 3 catalog by name.
func ByName(name string) (App, bool) {
	for _, a := range catalog {
		if a.Name == name {
			return a, true
		}
	}
	return App{}, false
}

// Names lists the catalog's application names in order.
func Names() []string {
	out := make([]string, len(catalog))
	for i, a := range catalog {
		out[i] = a.Name
	}
	return out
}
