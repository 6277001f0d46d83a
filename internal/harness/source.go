package harness

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"

	"rnuma/internal/config"
	"rnuma/internal/spec"
	"rnuma/internal/trace"
	"rnuma/internal/tracefile"
	"rnuma/internal/traffic"
	"rnuma/internal/workloads"
)

// Source is a workload from outside the built-in catalog: a recorded
// trace, a declarative spec or a traffic scenario, loaded from its bytes
// (Load). Registered sources join the harness's application namespace,
// so every figure, plan, and CLI flag that takes an application name
// takes a source name too.
type Source interface {
	// Name is the application name the source registers under.
	Name() string
	// Key identifies the source's *content* for the memo cache: two
	// inputs with the same name but different bytes must not share
	// simulations, and re-registering identical content is a no-op.
	Key() string
	// Load builds the workload for one simulation. It is called once per
	// memoized job, so sources may hand out consume-once streams.
	Load(cfg workloads.Config) (*workloads.Workload, error)
}

// Input kinds.
const (
	KindTrace   = "trace"   // a recorded tracefile encoding
	KindSpec    = "spec"    // a declarative workload spec (JSON)
	KindTraffic = "traffic" // a multi-tenant traffic scenario (JSON)
)

// Input is what Inspect reads of an input's bytes.
type Input struct {
	Kind, Name string           // Name is the embedded workload or scenario name
	Header     tracefile.Header // a trace's recorded header; zero otherwise
}

// Inspect checks data as one input of the given kind, reading only what
// names it: a trace's header, or a spec's or scenario's JSON. Kind ""
// sniffs: tracefile encodings are binary, and of the two JSON kinds only
// traffic scenarios have a top-level "clients" key.
func Inspect(kind string, data []byte) (Input, error) {
	in := Input{Kind: kind}
	if kind == "" {
		in.Kind = sniffKind(data)
	}
	switch in.Kind {
	case KindTrace:
		d, err := tracefile.NewReader(bytes.NewReader(data))
		if err != nil {
			return in, fmt.Errorf("harness: bad trace: %w", err)
		}
		in.Header = d.Header()
		in.Name = in.Header.Name
	case KindSpec:
		s, err := spec.Parse(data)
		if err != nil {
			return in, fmt.Errorf("harness: bad spec: %w", err)
		}
		in.Name = s.Name
	case KindTraffic:
		s, err := traffic.Parse(data)
		if err != nil {
			return in, fmt.Errorf("harness: bad traffic scenario: %w", err)
		}
		in.Name = s.Name
	default:
		return in, fmt.Errorf("harness: unknown input kind %q (want trace, spec, or traffic)", kind)
	}
	return in, nil
}

// System sizes sys for the input: a trace replays only on its recorded
// machine shape and geometry (traceSystem); a spec or a scenario is
// built for sys.
func (in Input) System(sys config.System) (config.System, error) {
	if in.Kind != KindTrace {
		return sys, nil
	}
	return traceSystem(sys, in.Header)
}

// sniffKind guesses an input's kind. The "clients" key is checked by
// decoding the object, because a substring test would mis-sniff any spec
// that merely mentions clients in a name or value.
func sniffKind(data []byte) string {
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	if len(trimmed) == 0 || trimmed[0] != '{' {
		return KindTrace
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(trimmed, &top); err == nil {
		if _, ok := top["clients"]; ok {
			return KindTraffic
		}
	}
	return KindSpec
}

// Load builds a source from an input's bytes and registers it under
// name ("" keeps the embedded name); kind "" sniffs it, as Inspect does.
// A trace is keyed by its canonical content hash, so its v1 and v2
// encodings and a cut+cat recomposition share simulations; bytes already
// keyed in this process reuse their key from the trace memo, and the
// trace is decoded at most once, charged to h's decode budget (past the
// budget it streams from data). A spec is keyed by its bytes' hash. A
// traffic scenario is compiled once, for sys's machine shape at h's
// scale and seed, with relative phase paths resolved against baseDir
// ("" means the working directory); it is keyed by its compiled
// streams' canonical hash plus its bytes' hash, since the attribution
// split shapes per-client results. Specs and traces ignore sys.
// Re-loading content already registered under the name returns the
// registered source; different content under it is an error.
func (h *Harness) Load(kind string, data []byte, name, baseDir string, sys config.System) (Source, error) {
	if kind == "" {
		kind = sniffKind(data)
	}
	var src Source
	switch kind {
	case KindTrace:
		v, err := openCapture(data, &h.decodes)
		if err != nil {
			return nil, err
		}
		v.name = cmp.Or(name, v.hdr.Name)
		src = v
	case KindSpec:
		s, err := spec.Parse(data)
		if err != nil {
			return nil, err
		}
		sum := sha256.Sum256(data)
		src = &specSource{s: s, name: cmp.Or(name, s.Name), key: fmt.Sprintf("spec:%s:%x", s.Name, sum[:8])}
	case KindTraffic:
		t, err := compileTraffic(data, name, baseDir, h.workloadConfig(sys))
		if err != nil {
			return nil, err
		}
		src = t
	default:
		return nil, fmt.Errorf("harness: unknown input kind %q (want trace, spec, or traffic)", kind)
	}
	return h.register(src)
}

// register adds a source to the harness's application namespace and
// returns the registered source. Registered names take precedence over
// the built-in catalog (replaying a recorded "barnes" trace shadows the
// generator of the same name for that harness). Registering content
// already registered under the name keeps the first source (and any
// decode it holds); different content under the name is an error.
func (h *Harness) register(src Source) (Source, error) {
	h.srcMu.Lock()
	defer h.srcMu.Unlock()
	if h.sources == nil {
		h.sources = make(map[string]Source)
	}
	if old, ok := h.sources[src.Name()]; ok {
		if old.Key() != src.Key() {
			return nil, fmt.Errorf("harness: source %q already registered with different content", src.Name())
		}
		return old, nil
	}
	h.sources[src.Name()] = src
	return src, nil
}

// source looks up a registered source by application name.
func (h *Harness) source(name string) Source {
	h.srcMu.Lock()
	defer h.srcMu.Unlock()
	return h.sources[name]
}

// ScenarioOf returns a traffic source's compiled scenario, or nil for
// any other source.
func ScenarioOf(src Source) *traffic.Scenario {
	if t, ok := src.(*trafficSource); ok {
		return t.sc
	}
	return nil
}

// specSource builds workloads from a parsed declarative spec.
type specSource struct {
	s         *spec.Spec
	name, key string
}

func (s *specSource) Name() string { return s.name }
func (s *specSource) Key() string  { return s.key }
func (s *specSource) Load(cfg workloads.Config) (*workloads.Workload, error) {
	return s.s.Build(cfg)
}

// trafficSource serves a compiled multi-tenant traffic scenario, handing
// out fresh streams per Load.
type trafficSource struct {
	sc        *traffic.Scenario
	name, key string
}

// compileTraffic compiles a traffic scenario's bytes for cfg and keys
// the result, named name ("" keeps the scenario's own).
func compileTraffic(data []byte, name, baseDir string, cfg workloads.Config) (*trafficSource, error) {
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
	return &trafficSource{sc: sc, name: cmp.Or(name, sc.Name), key: fmt.Sprintf("traffic:%s:%x:%x", sc.Name, sum[:8], specSum[:8])}, nil
}

func (t *trafficSource) Name() string { return t.name }
func (t *trafficSource) Key() string  { return t.key }

func (t *trafficSource) Load(cfg workloads.Config) (*workloads.Workload, error) {
	want := t.sc.Cfg
	if cfg.Geometry != want.Geometry || cfg.Nodes != want.Nodes || cfg.CPUsPerNode != want.CPUsPerNode {
		return nil, fmt.Errorf("harness: traffic scenario %q compiled for %dx%d %v, machine wants %dx%d %v",
			t.name, want.Nodes, want.CPUsPerNode, want.Geometry, cfg.Nodes, cfg.CPUsPerNode, cfg.Geometry)
	}
	return t.sc.Workload(), nil
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
// bytes on every replay instead.
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
		streams[cpu] = &mapStream{src: s, cpu: cpu, maps: t.maps, failed: failed}
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

// mapStream is one CPU's records read through a variant's maps (no sweep
// transform changes the CPU count, so no map moves a record's CPU).
type mapStream struct {
	src    trace.Stream
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

// variant is one in-memory trace a job reads, and the Source it
// registers as: a caller's capture, or a sweep transform of one. A
// capture holds its bytes and decodes them at most once, charged to the
// budget of the harness that built it, for its key on a memo miss or for
// the first simulation, fork trunk or variant that reads it; the decode
// is held while its variants exist. A transform's variant is never
// encoded or decoded: it is its capture's records read through the
// transforms' pure forms (a grid's X map, then its Y map), keyed by the
// canonical hash of those mapped records, which is the key its encoding
// would have.
type variant struct {
	d    derivation
	name string           // the registered name ("" until registered)
	key  string           // the content key
	hdr  tracefile.Header // homes included
	data []byte           // a capture's bytes
	in   *variant         // the capture (itself for a capture)
	maps []tracefile.Map  // a transform's pure forms, in order

	mu     sync.Mutex
	budget *decodeBudget // a capture's: its harness's
	tr     *replayTrace  // nil until read
	err    error         // sticky read error
}

// openCapture resolves a caller's input trace: its key and header come
// from the memo, or else from decoding and hashing it now. b is the
// budget of the harness the decode is charged to.
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
// capture, named by its header: m is its pure form over v's header
// (pointOf). Its key is unresolved until registerVariant.
func (v *variant) then(axis Axis, val SweepValue, m *tracefile.Map) *variant {
	return &variant{d: v.d.then(axis, val), name: m.Header.Name, hdr: m.Header, in: v.in,
		maps: append(v.maps[:len(v.maps):len(v.maps)], *m)}
}

// registerVariant learns a transform's key and registers the variant. On
// a memo hit nothing is read (trace maps and checks the variant when a
// simulation or fork trunk first reads it); on a miss it is mapped and
// hashed now, and its key memoized. A capture (a threshold line over it)
// keeps the key openCapture gave it: its memo entry carries the header
// the next openCapture of its bytes reads, which a keyed-only entry
// would drop.
func (h *Harness) registerVariant(v *variant) error {
	switch info, ok := memoGet(v.d); {
	case v.key != "": // a capture, keyed by openCapture
	case ok:
		v.key = info.key
	default:
		tr, key, err := v.view()
		if err != nil {
			return err
		}
		v.tr, v.key = tr, key
		memoPut(v.d, traceInfo{key: key})
	}
	_, err := h.register(v)
	return err
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

func (v *variant) Name() string { return v.name }
func (v *variant) Key() string  { return v.key }

// Load replays the trace on a machine of its recorded shape and
// geometry.
func (v *variant) Load(cfg workloads.Config) (*workloads.Workload, error) {
	hdr := v.hdr
	if cfg.Geometry != hdr.Geometry {
		return nil, fmt.Errorf("harness: trace %s recorded with %v, machine uses %v", v.name, hdr.Geometry, cfg.Geometry)
	}
	if cpus := cfg.Nodes * cfg.CPUsPerNode; cpus != hdr.CPUs || cfg.Nodes != hdr.Nodes {
		return nil, fmt.Errorf("harness: trace %s recorded on %d nodes/%d cpus, machine has %d/%d",
			v.name, hdr.Nodes, hdr.CPUs, cfg.Nodes, cpus)
	}
	tr, err := v.trace()
	if err != nil {
		return nil, err
	}
	w, err := tr.open()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", v.name, err)
	}
	return w, nil
}
