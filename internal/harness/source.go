package harness

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"rnuma/internal/spec"
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
	if enc := encodingOf(src); enc != nil {
		enc.adopt(&h.decodes)
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

// traceSource replays a recorded trace, either from a file (opened per
// Load and streamed, never materialized) or from an in-memory encoding:
// the caller's bytes, or a sweep variant derived on the first Load. An
// in-memory trace is decoded at most once, for its key on a memo miss or
// else on the first Load, and every Load replays fresh cursors over that
// decode; one past its harness's decode budget streams like a file. A
// streamed Workload.Check releases the input and surfaces any decode
// error after the run.
type traceSource struct {
	path string    // file-backed source ("" when in memory)
	enc  *encoding // in-memory source (nil when file-backed)
	info traceInfo
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
	info, err := contentKey(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &traceSource{path: path, info: info}, nil
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
	v, err := capture(data, nil)
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
	var buf bytes.Buffer
	if _, _, err := sc.Encode(&buf); err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	sum, _, err := tracefile.CanonicalHash(bytes.NewReader(buf.Bytes()))
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

func (t *traceSource) Name() string { return t.info.hdr.Name }
func (t *traceSource) Key() string  { return t.info.key }

// what names the source in errors.
func (t *traceSource) what() string {
	if t.path != "" {
		return t.path
	}
	return "(in-memory) " + t.info.hdr.Name
}

func (t *traceSource) Load(cfg workloads.Config) (*workloads.Workload, error) {
	hdr := t.info.hdr
	if cfg.Geometry != hdr.Geometry {
		return nil, fmt.Errorf("harness: trace %s recorded with %v, machine uses %v", t.what(), hdr.Geometry, cfg.Geometry)
	}
	if cpus := cfg.Nodes * cfg.CPUsPerNode; cpus != hdr.CPUs || cfg.Nodes != hdr.Nodes {
		return nil, fmt.Errorf("harness: trace %s recorded on %d nodes/%d cpus, machine has %d/%d",
			t.what(), hdr.Nodes, hdr.CPUs, cfg.Nodes, cpus)
	}
	if t.enc != nil {
		tr, err := t.enc.trace()
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
// The trace memo. A trace's store key is its content key, which only a
// full decode (tracefile.CanonicalHash) can produce, and a sweep point's
// trace exists only after a transform has decoded and re-encoded the
// capture. Both depend on nothing but the input bytes and the transforms
// applied to them, so the process remembers each derivation's key: a
// resubmitted sweep, grid or replay learns every key without decoding,
// and a variant is derived only when a simulation or a fork trunk reads
// it. The memo is never persisted: a change to a transform changes the
// variants it derives, and so their keys, which a persisted map would
// not notice.

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

// traceInfo is what the memo keeps of a trace: its content key and its
// header without the home map. It holds no encoding.
type traceInfo struct {
	key string           // "trace:<name>:<hash8>", a JobKey's App part
	hdr tracefile.Header // name, shape, geometry, pages; Homes is nil
}

// traceMemoBound caps the memo's entries (a few hundred bytes each).
// Dropping an entry costs a re-derivation, never a wrong key.
const traceMemoBound = 2048

// traceMemo maps derivations to content keys for the whole process:
// entries follow content alone, so every harness, store, scale and seed
// may share them. Only successes are stored, so a bad input fails again
// on every call.
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
// decode avoid: sweep transforms derived, canonical hashes computed, and
// passes that decode an in-memory trace's records (a decode for replay,
// a streamed replay or a streamed hash).
var traceWork struct{ transforms, hashes, decodes atomic.Int64 }

// contentKey fully decodes a trace and returns its content key.
func contentKey(r io.Reader) (traceInfo, error) {
	traceWork.hashes.Add(1)
	sum, hdr, err := tracefile.CanonicalHash(r)
	if err != nil {
		return traceInfo{}, err
	}
	return newTraceInfo(sum, hdr), nil
}

// newTraceInfo names a trace by its canonical hash.
func newTraceInfo(sum [sha256.Size]byte, hdr tracefile.Header) traceInfo {
	hdr.Homes = nil
	return traceInfo{key: fmt.Sprintf("trace:%s:%x", hdr.Name, sum[:8]), hdr: hdr}
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

// noDecode is the budget of a capture its job only transforms (a
// non-threshold sweep's or a grid's): hashing it streams, and it holds
// no decode.
var noDecode = &decodeBudget{limit: -1}

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

// replayTrace is an in-memory trace ready to replay: decoded once into
// per-CPU reference slices when they fit the decode budget, or else
// streamed from its bytes on every open.
type replayTrace struct {
	hdr  tracefile.Header    // homes included
	w    *workloads.Workload // the decoded references; nil streams data
	held int64               // records decoded (0 when streaming)
	data []byte
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

// open returns the trace as a workload whose streams start at record 0.
func (t *replayTrace) open() (*workloads.Workload, error) {
	if t.w != nil {
		return t.w.Fresh(), nil
	}
	traceWork.decodes.Add(1)
	d, err := tracefile.NewReader(bytes.NewReader(t.data))
	if err != nil {
		return nil, err
	}
	return d.Workload(), nil
}

// key hashes the trace's content key from its decoded references, or by
// a streaming decode when it has none.
func (t *replayTrace) key() (traceInfo, error) {
	if t.w == nil {
		traceWork.decodes.Add(1)
		return contentKey(bytes.NewReader(t.data))
	}
	traceWork.hashes.Add(1)
	return newTraceInfo(tracefile.CanonicalHashStreams(t.hdr, t.w.Fresh().Streams), t.hdr), nil
}

// encoding is an in-memory trace a job reads: its bytes, given outright
// for a caller's input or derived on first use for a sweep variant, and
// its decode for replay, made at most once. A job's simulations, fork
// trunk and forks, and the trace's content key on a memo miss, all share
// the one derivation and the one decode.
type encoding struct {
	mu sync.Mutex
	// derive, until it runs, makes a variant's bytes, and its decode too
	// when it hashes them against a memoized key.
	derive func() ([]byte, *replayTrace, error)
	budget *decodeBudget // the owning harness's; nil until registered
	data   []byte
	tr     *replayTrace // nil until decoded
	err    error        // sticky derivation or decode error
}

// resolve runs a pending derivation. The caller holds e.mu.
func (e *encoding) resolve() {
	if e.derive != nil {
		e.data, e.tr, e.err = e.derive()
		e.derive = nil
	}
}

// bytes returns the encoding, deriving it on first use.
func (e *encoding) bytes() ([]byte, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.resolve()
	return e.data, e.err
}

// trace returns the trace ready to replay, decoding it on first use.
func (e *encoding) trace() (*replayTrace, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.resolve()
	if e.tr == nil && e.err == nil {
		e.tr, e.err = decodeTrace(e.data, e.budget)
	}
	return e.tr, e.err
}

// key computes the trace's content key from its shared decode.
func (e *encoding) key() (traceInfo, error) {
	tr, err := e.trace()
	if err != nil {
		return traceInfo{}, err
	}
	return tr.key()
}

// adopt makes a harness's budget the owner of an encoding that has none
// (a TraceSource's): a decode already made is charged to it, or dropped
// when it does not fit, and the trace then streams.
func (e *encoding) adopt(b *decodeBudget) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.budget != nil {
		return
	}
	e.budget = b
	if e.tr != nil && e.tr.w != nil && !b.reserve(e.tr.held) {
		e.tr = &replayTrace{hdr: e.tr.hdr, data: e.data}
	}
}

// encodingOf returns the encoding behind an in-memory trace source, or
// nil for any other source.
func encodingOf(src Source) *encoding {
	for {
		switch s := src.(type) {
		case *renamedSource:
			src = s.Source
		case *traceSource:
			return s.enc
		default:
			return nil
		}
	}
}

// variant is one trace a sweep or grid reads: the caller's capture, or a
// transform of it.
type variant struct {
	d    derivation
	info traceInfo
	enc  *encoding
}

// capture resolves a caller's input trace, decoding and hashing it only
// if these bytes were not hashed before in this process. b is the budget
// its decode is charged to: the harness's when the job replays the
// capture, noDecode when it only transforms it, nil for a TraceSource
// that a harness adopts when it registers the source.
func capture(data []byte, b *decodeBudget) (*variant, error) {
	v := &variant{d: derivation{input: sha256.Sum256(data)}, enc: &encoding{data: data, budget: b}}
	if info, ok := memoGet(v.d); ok {
		v.info = info
		return v, nil
	}
	info, err := v.enc.key()
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	memoPut(v.d, info)
	v.info = info
	return v, nil
}

// step resolves the variant that applies one validated transform to v.
// On a memo hit nothing is decoded: the variant's bytes are derived only
// when a simulation, a fork trunk or a further transform reads them, and
// then decoded and hashed against the memoized key, so a stale entry
// fails the job instead of keying a result to the wrong trace. On a miss
// the variant is derived, decoded and hashed now, and its key memoized.
// Either way its simulations replay that one decode, charged to b.
func (v *variant) step(axis Axis, val SweepValue, b *decodeBudget) (*variant, error) {
	out := &variant{d: v.d.then(axis, val)}
	derive := func() ([]byte, error) {
		in, err := v.enc.bytes()
		if err != nil {
			return nil, err
		}
		return transform(in, v.info.hdr, axis, val)
	}
	if info, ok := memoGet(out.d); ok {
		out.info = info
		out.enc = &encoding{budget: b, derive: func() ([]byte, *replayTrace, error) {
			data, err := derive()
			if err != nil {
				return nil, nil, err
			}
			tr, err := decodeTrace(data, b)
			if err != nil {
				return nil, nil, fmt.Errorf("harness: %w", err)
			}
			got, err := tr.key()
			if err != nil {
				return nil, nil, fmt.Errorf("harness: %w", err)
			}
			if got.key != info.key {
				return nil, nil, fmt.Errorf("harness: %s variant %s derived as %s, memoized as %s", axis, val, got.key, info.key)
			}
			return data, tr, nil
		}}
		return out, nil
	}
	data, err := derive()
	if err != nil {
		return nil, err
	}
	out.enc = &encoding{data: data, budget: b}
	info, err := out.enc.key()
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	memoPut(out.d, info)
	out.info = info
	return out, nil
}

// source wraps the variant as a workload source under its embedded name.
func (v *variant) source() Source { return &traceSource{enc: v.enc, info: v.info} }
