package harness

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"rnuma/internal/spec"
	"rnuma/internal/trace"
	"rnuma/internal/tracefile"
	"rnuma/internal/traffic"
	"rnuma/internal/workloads"
)

// Source supplies a workload from outside the built-in catalog: a
// declarative spec file or a recorded trace. Registered sources join the
// harness's application namespace, so every figure, plan, and CLI flag
// that takes an application name takes a source name too.
type Source interface {
	// Name is the application name the source registers under.
	Name() string
	// Key identifies the source's *content* for the memo cache: two
	// files with the same name but different bytes must not share
	// simulations, and re-registering identical content is a no-op.
	Key() string
	// Load builds (or opens) the workload for one simulation. It is
	// called once per memoized job, so trace sources may hand out
	// consume-once streams.
	Load(cfg workloads.Config) (*workloads.Workload, error)
}

// Register adds a source to the harness's application namespace.
// Registered names take precedence over the built-in catalog (replaying a
// recorded "barnes" trace shadows the generator of the same name for
// that harness). Re-registering the same content is a no-op; a name
// collision with different content is an error.
func (h *Harness) Register(src Source) error {
	h.srcMu.Lock()
	defer h.srcMu.Unlock()
	if h.sources == nil {
		h.sources = make(map[string]Source)
	}
	if old, ok := h.sources[src.Name()]; ok {
		if old.Key() != src.Key() {
			return fmt.Errorf("harness: source %q already registered with different content", src.Name())
		}
		return nil // keep the source (and any decode) already registered
	}
	h.sources[src.Name()] = src
	if v := variantOf(src); v != nil {
		v.adopt(&h.decodes)
	}
	return nil
}

// source looks up a registered source by application name.
func (h *Harness) source(name string) Source {
	h.srcMu.Lock()
	defer h.srcMu.Unlock()
	return h.sources[name]
}

// Sources lists the registered source names in no particular order.
func (h *Harness) Sources() []string {
	h.srcMu.Lock()
	defer h.srcMu.Unlock()
	out := make([]string, 0, len(h.sources))
	for name := range h.sources {
		out = append(out, name)
	}
	return out
}

// jobKey is the canonical string form of KeyFor (kept for tests and
// log lines; stores index by the same string via JobKey.String).
func (h *Harness) jobKey(j Job) string {
	return h.KeyFor(j).String()
}

// ---------------------------------------------------------------------

// specSource builds workloads from a parsed declarative spec.
type specSource struct {
	s   *spec.Spec
	key string
}

// SpecSource wraps an in-memory spec document (CLI paths that already
// read the bytes, e.g. stdin).
func SpecSource(data []byte) (Source, error) {
	s, err := spec.Parse(data)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(data)
	return &specSource{s: s, key: fmt.Sprintf("spec:%s:%x", s.Name, sum[:8])}, nil
}

// SpecFileSource loads a spec file as a workload source; the memo key is
// derived from the file's content hash.
func SpecFileSource(path string) (Source, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	src, err := SpecSource(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return src, nil
}

func (s *specSource) Name() string { return s.s.Name }
func (s *specSource) Key() string  { return s.key }
func (s *specSource) Load(cfg workloads.Config) (*workloads.Workload, error) {
	return s.s.Build(cfg)
}

// ---------------------------------------------------------------------

// traceSource replays a recorded trace: a file, opened per Load and
// streamed, never materialized, or an in-memory trace — a caller's
// capture, or a sweep variant read from the capture (see variant).
type traceSource struct {
	path string   // file-backed source ("" when in memory)
	v    *variant // the trace's key and header; in memory, the trace itself
}

// TraceFileSource opens a recorded trace as a workload source. The memo
// key is derived from tracefile.CanonicalHash — the decoded reference
// streams, not the bytes on disk — so a v1 trace, its v2 recompression,
// and a cut+cat recomposition of the same capture all share simulations;
// replay validates that the simulated machine matches the recorded
// geometry and CPU count. Opening hashes the file in one streaming
// decode, so a truncated or corrupt trace is rejected here rather than
// mid-run, and every Load streams the file again: a file-backed trace is
// never materialized, whatever its size.
func TraceFileSource(path string) (Source, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	defer f.Close()
	sum, hdr, err := tracefile.CanonicalHash(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &traceSource{path: path, v: &variant{key: traceKey(sum, hdr.Name), hdr: hdr}}, nil
}

// TraceSource wraps an in-memory trace encoding as a workload source —
// the transform pipeline's natural endpoint, where a retargeted or
// dilated trace goes straight into the harness without a temp file. The
// memo key follows the canonical content hash, like TraceFileSource;
// bytes already hashed in this process reuse their key from the trace
// memo instead of decoding again. The trace is decoded at most once: for
// its key on a memo miss, or else on the first Load. The harness it is
// registered with holds the decode against its budget.
func TraceSource(data []byte) (Source, error) {
	v, err := openCapture(data, nil)
	if err != nil {
		return nil, err
	}
	return v.source(), nil
}

// ---------------------------------------------------------------------

// TrafficScenarioSource serves a compiled multi-tenant traffic scenario
// (the concrete Source so callers can reach the compiled Scenario). The
// scenario is compiled once at registration (for one machine shape) and
// handed out as fresh streams per Load.
type TrafficScenarioSource struct {
	sc  *traffic.Scenario
	key string
}

// TrafficSource compiles an in-memory traffic spec for the given machine
// configuration and wraps the scenario as a workload source. The memo key
// combines the compiled streams' canonical hash (so two specs compiling
// to the same scenario share simulations, like trace sources) with the
// spec content hash (the attribution split is not part of the encoded
// streams, but it does shape per-client results).
func TrafficSource(data []byte, baseDir string, cfg workloads.Config) (*TrafficScenarioSource, error) {
	s, err := traffic.Parse(data)
	if err != nil {
		return nil, err
	}
	sc, err := traffic.Compile(s, cfg, baseDir)
	if err != nil {
		return nil, err
	}
	wl := sc.Workload()
	sum, err := tracefile.CanonicalHashStreams(tracefile.WorkloadHeader(wl, sc.Cfg), wl.Streams)
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	specSum := sha256.Sum256(data)
	return &TrafficScenarioSource{
		sc:  sc,
		key: fmt.Sprintf("traffic:%s:%x:%x", sc.Name, sum[:8], specSum[:8]),
	}, nil
}

func (t *TrafficScenarioSource) Name() string { return t.sc.Name }
func (t *TrafficScenarioSource) Key() string  { return t.key }

// Scenario exposes the compiled scenario (CLIs reuse the compilation for
// reporting and export).
func (t *TrafficScenarioSource) Scenario() *traffic.Scenario { return t.sc }

func (t *TrafficScenarioSource) Load(cfg workloads.Config) (*workloads.Workload, error) {
	want := t.sc.Cfg
	if cfg.Geometry != want.Geometry || cfg.Nodes != want.Nodes || cfg.CPUsPerNode != want.CPUsPerNode {
		return nil, fmt.Errorf("harness: traffic scenario %q compiled for %dx%d %v, machine wants %dx%d %v",
			t.sc.Name, want.Nodes, want.CPUsPerNode, want.Geometry, cfg.Nodes, cfg.CPUsPerNode, cfg.Geometry)
	}
	return t.sc.Workload(), nil
}

func (t *traceSource) Name() string { return t.v.hdr.Name }
func (t *traceSource) Key() string  { return t.v.key }

// what names the source in errors.
func (t *traceSource) what() string {
	if t.path != "" {
		return t.path
	}
	return "(in-memory) " + t.v.hdr.Name
}

func (t *traceSource) Load(cfg workloads.Config) (*workloads.Workload, error) {
	hdr := t.v.hdr
	if cfg.Geometry != hdr.Geometry {
		return nil, fmt.Errorf("harness: trace %s recorded with %v, machine uses %v", t.what(), hdr.Geometry, cfg.Geometry)
	}
	if cpus := cfg.Nodes * cfg.CPUsPerNode; cpus != hdr.CPUs || cfg.Nodes != hdr.Nodes {
		return nil, fmt.Errorf("harness: trace %s recorded on %d nodes/%d cpus, machine has %d/%d",
			t.what(), hdr.Nodes, hdr.CPUs, cfg.Nodes, cpus)
	}
	if t.path == "" {
		tr, err := t.v.trace()
		if err != nil {
			return nil, err
		}
		w, err := tr.open()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", t.what(), err)
		}
		return w, nil
	}
	f, err := os.Open(t.path)
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	d, err := tracefile.NewReader(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", t.path, err)
	}
	w := d.Workload()
	w.Check = func() error {
		cerr := d.Err()
		if err := f.Close(); cerr == nil && err != nil {
			cerr = err
		}
		return cerr
	}
	return w, nil
}

// ---------------------------------------------------------------------
// The trace memo. A trace's store key is its content key, which only
// hashing every record can produce. It depends on nothing but the input
// bytes and the sweep transforms applied to them, so the process
// remembers each derivation's key: a resubmitted sweep, grid or replay
// learns every key without decoding, and a variant is mapped only when a
// simulation or a fork trunk reads it. The memo is never persisted: a
// change to a transform changes the variants it maps, and so their keys,
// which a persisted map would not notice.

// derivation names a trace by how it was made: the SHA-256 of the bytes
// a caller handed in, then each sweep transform applied to them in
// order (a grid's X transform, then its Y transform).
type derivation struct {
	input [sha256.Size]byte
	n     int // transforms applied
	steps [2]axisValue
}

// axisValue is one transform of a derivation: the axis and its reduced
// value.
type axisValue struct {
	axis Axis
	v    SweepValue
}

// then extends the derivation by one transform.
func (d derivation) then(axis Axis, v SweepValue) derivation {
	if d.n == len(d.steps) {
		panic("harness: derivation deeper than a grid")
	}
	d.steps[d.n] = axisValue{axis, v}
	d.n++
	return d
}

// traceMemoBound caps the memo's entries (a few hundred bytes each, and
// a capture's home map). Dropping an entry costs a re-derivation, never a
// wrong key.
const traceMemoBound = 2048

// traceInfo is what the memo keeps of a trace: its content key and, for
// a capture, its header, so a resubmission reads only its bytes' digest.
type traceInfo struct {
	key string
	hdr *tracefile.Header // a capture's, homes included; nil for a variant
}

// traceMemo maps derivations to what the memo keeps for the whole
// process: entries follow content alone, so every harness, store, scale
// and seed may share them. Only successes are stored, so a bad input
// fails again on every call.
var traceMemo = struct {
	sync.Mutex
	m map[derivation]traceInfo
}{m: make(map[derivation]traceInfo)}

func memoGet(d derivation) (traceInfo, bool) {
	traceMemo.Lock()
	defer traceMemo.Unlock()
	info, ok := traceMemo.m[d]
	return info, ok
}

func memoPut(d derivation, info traceInfo) {
	traceMemo.Lock()
	defer traceMemo.Unlock()
	if _, ok := traceMemo.m[d]; !ok && len(traceMemo.m) >= traceMemoBound {
		for old := range traceMemo.m { // drop an arbitrary entry
			delete(traceMemo.m, old)
			break
		}
	}
	traceMemo.m[d] = info
}

// traceWork counts, process-wide, the trace work the memo and the shared
// decode avoid: variants mapped to learn or check their keys, canonical
// hashes of in-memory traces, and passes that decode a capture's records
// (a decode for replay, a streamed replay or a streamed hash).
var traceWork struct{ maps, hashes, decodes atomic.Int64 }

// traceKey names a trace by its canonical hash: "trace:<name>:<hash8>",
// a JobKey's App part.
func traceKey(sum [sha256.Size]byte, name string) string {
	return fmt.Sprintf("trace:%s:%x", name, sum[:8])
}

// maxDecodedRecords caps the trace references one harness holds decoded,
// at 12 bytes each 96 MiB. The largest full-scale catalog capture, moldyn,
// is 2,238,080 records. A trace that would pass the cap streams from its
// bytes on every replay instead, as file-backed traces always do.
const maxDecodedRecords = 1 << 23

// decodeBudget counts the decoded trace references a harness holds. Its
// zero value allows maxDecodedRecords; nothing is returned to it, so a
// decode lives as long as its harness.
type decodeBudget struct {
	limit int64 // records; 0 means maxDecodedRecords
	held  atomic.Int64
}

func (b *decodeBudget) size() int64 {
	if b.limit == 0 {
		return maxDecodedRecords
	}
	return b.limit
}

func (b *decodeBudget) left() int64 { return b.size() - b.held.Load() }

// reserve claims n records if they fit, reporting whether they did.
func (b *decodeBudget) reserve(n int64) bool {
	for {
		held := b.held.Load()
		if held+n > b.size() {
			return false
		}
		if b.held.CompareAndSwap(held, held+n) {
			return true
		}
	}
}

// replayTrace is an in-memory trace ready to replay: a capture decoded
// once into per-CPU reference slices when they fit the decode budget, or
// else streamed from its bytes on every open, read through a variant's
// maps if it has any.
type replayTrace struct {
	hdr  tracefile.Header    // homes included
	w    *workloads.Workload // the capture's decoded references; nil streams data
	held int64               // records decoded (0 when streaming)
	data []byte
	maps []tracefile.Map
}

// decodeTrace decodes an in-memory trace for replay when it fits what is
// left of b (nil: a budget of its own), and otherwise leaves it to
// stream. A malformed trace fails either way, with the decoder's error.
func decodeTrace(data []byte, b *decodeBudget) (*replayTrace, error) {
	if b == nil {
		b = new(decodeBudget)
	}
	d, err := tracefile.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	t := &replayTrace{hdr: d.Header(), data: data}
	if b.left() < 1 {
		return t, nil
	}
	traceWork.decodes.Add(1)
	w, n, err := d.Decode(b.left())
	if err != nil {
		return nil, err
	}
	if w != nil && b.reserve(n) {
		t.w, t.held = w, n
	}
	return t, nil
}

// open returns the trace as a workload whose streams start at record 0:
// fresh cursors over the decode, or a streaming decode of the bytes.
func (t *replayTrace) open() (*workloads.Workload, error) {
	w := t.w
	if w != nil {
		w = w.Fresh()
	} else {
		traceWork.decodes.Add(1)
		d, err := tracefile.NewReader(bytes.NewReader(t.data))
		if err != nil {
			return nil, err
		}
		w = d.Workload()
	}
	if len(t.maps) == 0 {
		return w, nil
	}
	// Maps keep each record's CPU and position, so refills and fork seeks
	// work unchanged. A map error ends the streams; Check reports it.
	failed := new(error)
	streams := make([]trace.Stream, len(w.Streams))
	for cpu, s := range w.Streams {
		streams[cpu] = &mapStream{src: s.(seekBatcher), cpu: cpu, maps: t.maps, failed: failed}
	}
	return &workloads.Workload{
		Name: t.hdr.Name, Streams: streams, Homes: t.hdr.HomeFunc(), SharedPages: t.hdr.SharedPages,
		Check: func() error {
			if err := checkStreams(w); err != nil {
				return err
			}
			return *failed
		},
	}, nil
}

// key hashes the trace's content key from the records open delivers.
func (t *replayTrace) key() (string, error) {
	w, err := t.open()
	if err != nil {
		return "", err
	}
	traceWork.hashes.Add(1)
	sum, err := tracefile.CanonicalHashStreams(t.hdr, w.Streams)
	if cerr := checkStreams(w); cerr != nil {
		err = cerr
	}
	return traceKey(sum, t.hdr.Name), err
}

// seekBatcher is what a capture's streams, decoded or streamed, are.
type seekBatcher interface {
	trace.Batcher
	trace.Seeker
}

// mapStream is one CPU's records read through a variant's maps (no sweep
// transform changes the CPU count, so no map moves a record's CPU).
type mapStream struct {
	src    seekBatcher
	cpu    int
	maps   []tracefile.Map
	rec    trace.Ref   // Next's record, mapped in place
	buf    []trace.Ref // NextBatch's records, mapped in place
	failed *error      // the workload's first map error
}

// mapRef maps one record in place, or records the map's error and
// reports false.
func (s *mapStream) mapRef(r *trace.Ref) bool {
	for i := range s.maps {
		if _, err := s.maps[i].Record(s.cpu, r); err != nil {
			if *s.failed == nil {
				*s.failed = err
			}
			return false
		}
	}
	return true
}

func (s *mapStream) Next() (trace.Ref, bool) {
	var ok bool
	if s.rec, ok = s.src.Next(); !ok || *s.failed != nil || !s.mapRef(&s.rec) {
		return trace.Ref{}, false
	}
	return s.rec, true
}

// NextBatch maps a copy of the source's batch in place: the source's
// view aliases the capture's shared decode.
func (s *mapStream) NextBatch(max int) []trace.Ref {
	if *s.failed != nil {
		return nil
	}
	s.buf = append(s.buf[:0], s.src.NextBatch(max)...)
	for i := range s.buf {
		if !s.mapRef(&s.buf[i]) {
			return s.buf[:i]
		}
	}
	return s.buf
}

func (s *mapStream) SeekRecord(n int64) error { return s.src.SeekRecord(n) }

// variant is one in-memory trace a job reads: a caller's capture, or a
// sweep transform of one. A capture holds its bytes and decodes them at
// most once, for its key on a memo miss or for the first simulation,
// fork trunk or variant that reads it; the decode is held while its
// variants exist. A transform's variant is never encoded or decoded: it
// is its capture's records read through the transforms' pure forms (a
// grid's X map, then its Y map), keyed by the canonical hash of those
// mapped records, which is the key its encoding would have.
type variant struct {
	d    derivation
	key  string           // the content key
	hdr  tracefile.Header // homes included
	data []byte           // a capture's bytes
	in   *variant         // the capture (itself for a capture)
	maps []tracefile.Map  // a transform's pure forms, in order

	mu     sync.Mutex
	budget *decodeBudget // a capture's: the owning harness's, nil until registered
	tr     *replayTrace  // nil until read
	err    error         // sticky read error
}

// openCapture resolves a caller's input trace: its key and header come
// from the memo, or else from decoding and hashing it now. b is the
// budget the decode is charged to: the harness's for a sweep or grid,
// nil for a TraceSource, which its harness adopts on registration.
func openCapture(data []byte, b *decodeBudget) (*variant, error) {
	v := &variant{d: derivation{input: sha256.Sum256(data)}, data: data, budget: b}
	v.in = v
	if info, ok := memoGet(v.d); ok {
		v.key, v.hdr = info.key, *info.hdr
		return v, nil
	}
	tr, err := v.trace()
	if err == nil {
		v.hdr = tr.hdr
		v.key, err = tr.key()
	}
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	hdr := tr.hdr // a copy: the memo must not keep the decode alive
	memoPut(v.d, traceInfo{v.key, &hdr})
	return v, nil
}

// then returns the variant that applies one more transform to v's
// capture: m is its pure form over v's header (pointOf). Its key is
// unresolved until registerVariant.
func (v *variant) then(axis Axis, val SweepValue, m *tracefile.Map) *variant {
	return &variant{d: v.d.then(axis, val), hdr: m.Header, in: v.in, maps: append(v.maps[:len(v.maps):len(v.maps)], *m)}
}

// registerVariant learns a transform's key and registers the variant
// under its embedded name. On a memo hit nothing is read (trace maps and
// checks the variant when a simulation or fork trunk first reads it); on
// a miss it is mapped and hashed now, and its key memoized.
func (h *Harness) registerVariant(v *variant) error {
	if info, ok := memoGet(v.d); ok {
		v.key = info.key
	} else {
		tr, key, err := v.view()
		if err != nil {
			return err
		}
		v.tr, v.key = tr, key
		memoPut(v.d, traceInfo{key: key})
	}
	return h.Register(v.source())
}

// view reads the capture through the variant's maps and hashes the
// result.
func (v *variant) view() (*replayTrace, string, error) {
	tr, err := v.in.trace()
	if err != nil {
		return nil, "", fmt.Errorf("harness: %w", err)
	}
	traceWork.maps.Add(1)
	tr = &replayTrace{hdr: v.hdr, w: tr.w, data: tr.data, maps: v.maps}
	key, err := tr.key()
	if err != nil {
		return nil, "", fmt.Errorf("harness: %w", err)
	}
	return tr, key, nil
}

// trace returns the trace ready to replay, reading it on first use: a
// capture's decode, or a transform read through its maps and hashed
// against its memoized key, so a stale memo entry fails the job instead
// of keying a result to the wrong trace.
func (v *variant) trace() (*replayTrace, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.tr == nil && v.err == nil {
		if v.in == v {
			v.tr, v.err = decodeTrace(v.data, v.budget)
		} else if tr, key, err := v.view(); err != nil {
			v.err = err
		} else if key != v.key {
			v.err = fmt.Errorf("harness: variant %s mapped as %s, memoized as %s", v.hdr.Name, key, v.key)
		} else {
			v.tr = tr
		}
	}
	return v.tr, v.err
}

// adopt makes a harness's budget the owner of a capture that has none
// (a TraceSource's): a decode already made is charged to it, or dropped
// when it does not fit, and the capture then streams.
func (v *variant) adopt(b *decodeBudget) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.in != v || v.budget != nil {
		return
	}
	v.budget = b
	if v.tr != nil && v.tr.w != nil && !b.reserve(v.tr.held) {
		v.tr = &replayTrace{hdr: v.tr.hdr, data: v.data}
	}
}

// variantOf returns the trace behind an in-memory trace source, or nil
// for any other source.
func variantOf(src Source) *variant {
	for {
		switch s := src.(type) {
		case *renamedSource:
			src = s.Source
		case *traceSource:
			return s.v
		default:
			return nil
		}
	}
}

// source wraps the variant as a workload source under its embedded name.
func (v *variant) source() Source { return &traceSource{v: v} }
