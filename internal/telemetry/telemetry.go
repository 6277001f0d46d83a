// Package telemetry is the time-resolved observability layer: a sampling
// probe the machine drives every N references, materializing windowed
// counter deltas (the interval series), a relocation event log, and a
// per-node remote-traffic matrix from the counters the simulator already
// maintains.
//
// The probe is pull-based: the machine checks one int64 against its
// reference count per reference and calls into the probe only at window
// boundaries, so a disabled probe (nil) costs a single always-false
// compare and zero allocations on the hot path. Window boundaries are
// defined purely by the global reference count — which the single-threaded
// event engine advances exactly once per reference — so the series is
// bit-identical across serial, parallel-scheduled, fork-sweep, and
// snapshot/resume replays of the same trace.
package telemetry

import (
	"fmt"

	"rnuma/internal/addr"
)

// DefaultWindow is the interval width CLIs use when telemetry is requested
// without an explicit window: 64k references keeps the series short enough
// to render while bounding replay overhead to a few percent.
const DefaultWindow = 64 << 10

// Config selects the probe's sampling behavior. The zero value disables
// telemetry entirely.
type Config struct {
	// Window is the interval width in references. <= 0 disables the probe.
	Window int64 `json:"window"`
}

// Enabled reports whether the configuration asks for a probe at all.
func (c Config) Enabled() bool { return c.Window > 0 }

// Counters is the protocol-activity counter block: the counters whose
// temporal shape the reactive story is about. stats.Run embeds it as its
// run totals, the interval series windows it, and attribution splits it
// per client. Timing/contention counters stay outside — they are not
// meaningful as per-window deltas under the conservative event engine.
// A new counter here also needs a line in Sub and in Add.
type Counters struct {
	Refs           int64 `json:"refs"` // total references issued
	L1Hits         int64 `json:"l1Hits"`
	LocalFills     int64 `json:"localFills"` // fills from node memory (home-local data)
	BlockCacheHits int64 `json:"blockCacheHits"`
	PageCacheHits  int64 `json:"pageCacheHits"`
	RemoteFetches  int64 `json:"remoteFetches"` // block fetches that crossed the network

	// Refetches are remote fetches for blocks the node previously held and
	// lost to capacity/conflict eviction (never to an invalidation).
	Refetches int64 `json:"refetches"`

	Upgrades       int64 `json:"upgrades"`       // writes serviced by a permission upgrade (data already held)
	PageFaults     int64 `json:"pageFaults"`     // mapping faults (first touch of an unmapped page)
	Allocations    int64 `json:"allocations"`    // S-COMA page-cache frame allocations
	Replacements   int64 `json:"replacements"`   // S-COMA page-cache victim replacements
	Relocations    int64 `json:"relocations"`    // R-NUMA CC->S-COMA page relocations
	Demotions      int64 `json:"demotions"`      // always zero: no page returns from S-COMA to CC-NUMA
	InvalsSent     int64 `json:"invalsSent"`     // directory-initiated invalidations
	WritebacksHome int64 `json:"writebacksHome"` // dirty block writebacks that reached the home
}

// Sub returns the component-wise difference c - prev: the delta a window
// contributed given cumulative samples at its two boundaries.
func (c Counters) Sub(prev Counters) Counters {
	return Counters{
		Refs:           c.Refs - prev.Refs,
		L1Hits:         c.L1Hits - prev.L1Hits,
		LocalFills:     c.LocalFills - prev.LocalFills,
		BlockCacheHits: c.BlockCacheHits - prev.BlockCacheHits,
		PageCacheHits:  c.PageCacheHits - prev.PageCacheHits,
		RemoteFetches:  c.RemoteFetches - prev.RemoteFetches,
		Refetches:      c.Refetches - prev.Refetches,
		Upgrades:       c.Upgrades - prev.Upgrades,
		PageFaults:     c.PageFaults - prev.PageFaults,
		Allocations:    c.Allocations - prev.Allocations,
		Replacements:   c.Replacements - prev.Replacements,
		Relocations:    c.Relocations - prev.Relocations,
		Demotions:      c.Demotions - prev.Demotions,
		InvalsSent:     c.InvalsSent - prev.InvalsSent,
		WritebacksHome: c.WritebacksHome - prev.WritebacksHome,
	}
}

// Add accumulates the component-wise sum c + d in place (per-client
// attribution accumulates window deltas into per-tenant totals).
func (c *Counters) Add(d Counters) {
	c.Refs += d.Refs
	c.L1Hits += d.L1Hits
	c.LocalFills += d.LocalFills
	c.BlockCacheHits += d.BlockCacheHits
	c.PageCacheHits += d.PageCacheHits
	c.RemoteFetches += d.RemoteFetches
	c.Refetches += d.Refetches
	c.Upgrades += d.Upgrades
	c.PageFaults += d.PageFaults
	c.Allocations += d.Allocations
	c.Replacements += d.Replacements
	c.Relocations += d.Relocations
	c.Demotions += d.Demotions
	c.InvalsSent += d.InvalsSent
	c.WritebacksHome += d.WritebacksHome
}

// Interval is one window of the series: the counter deltas accumulated
// over references (StartRef, EndRef], plus the window's remote-traffic
// matrix when any remote fetch occurred.
type Interval struct {
	// Index is the interval's ordinal in the series (0-based). Every
	// interval but the last covers exactly Window references, so Index
	// also equals StartRef/Window.
	Index int64 `json:"index"`

	// StartRef/EndRef bound the window: it covers the references numbered
	// StartRef+1 through EndRef (1-based global reference indices).
	StartRef int64 `json:"startRef"`
	EndRef   int64 `json:"endRef"`

	// Delta holds the counter increments this window contributed.
	Delta Counters `json:"delta"`

	// Traffic is the window's remote-fetch matrix, flattened
	// requester-major (Traffic[src*nodes+dst] = fetches node src issued
	// to home dst). Nil when the window saw no remote fetch, so that
	// quiet windows cost nothing to store or compare.
	Traffic []int64 `json:"traffic,omitempty"`

	// PerClient splits Delta by traffic client, indexed like
	// Timeline.Clients. Nil unless the run carried attribution (the
	// single-tenant series is unchanged by the multi-tenant extension).
	PerClient []Counters `json:"perClient,omitempty"`
}

// TrafficAt returns the window's remote-fetch count from requester src to
// home dst, handling the nil (quiet-window) representation.
func (iv *Interval) TrafficAt(src, dst addr.NodeID, nodes int) int64 {
	if iv.Traffic == nil {
		return 0
	}
	return iv.Traffic[int(src)*nodes+int(dst)]
}

// Event records one page crossing the relocation threshold: which page,
// on which node, at which global reference, and the refetch count that
// triggered it (== the run's threshold).
type Event struct {
	// Ref is the 1-based global reference index of the access that
	// crossed the threshold.
	Ref int64 `json:"ref"`

	// Window is the ordinal of the interval containing Ref.
	Window int64 `json:"window"`

	Node  addr.NodeID  `json:"node"`
	Page  addr.PageNum `json:"page"`
	Count uint32       `json:"count"`
}

// Timeline is a run's complete telemetry capture. It rides on stats.Run,
// so memoization, snapshots, and fork sweeps carry it alongside the
// counters it windows.
type Timeline struct {
	Window    int64      `json:"window"`
	Nodes     int        `json:"nodes"`
	Intervals []Interval `json:"intervals"`
	Events    []Event    `json:"events"`

	// Clients names the traffic clients the intervals' PerClient slices
	// index; nil for single-tenant runs.
	Clients []string `json:"clients,omitempty"`
}

// Clone returns a deep copy: the interval slice, each interval's traffic
// matrix, and the event log are all copied.
func (t *Timeline) Clone() *Timeline {
	if t == nil {
		return nil
	}
	c := &Timeline{Window: t.Window, Nodes: t.Nodes}
	if t.Clients != nil {
		c.Clients = append([]string(nil), t.Clients...)
	}
	if t.Intervals != nil {
		c.Intervals = make([]Interval, len(t.Intervals))
		for i, iv := range t.Intervals {
			c.Intervals[i] = iv
			if iv.Traffic != nil {
				c.Intervals[i].Traffic = append([]int64(nil), iv.Traffic...)
			}
			if iv.PerClient != nil {
				c.Intervals[i].PerClient = append([]Counters(nil), iv.PerClient...)
			}
		}
	}
	if t.Events != nil {
		c.Events = append([]Event(nil), t.Events...)
	}
	return c
}

// TotalTraffic sums the per-window traffic matrices into one nodes×nodes
// requester-major matrix for the whole run.
func (t *Timeline) TotalTraffic() []int64 {
	total := make([]int64, t.Nodes*t.Nodes)
	for _, iv := range t.Intervals {
		for i, v := range iv.Traffic {
			total[i] += v
		}
	}
	return total
}

// Probe is the machine-side sampler. The machine calls AddTraffic and
// Relocation from its protocol paths (only when the probe is non-nil) and
// Flush at each window boundary and at end of run; everything else is
// internal cursor state.
type Probe struct {
	window int64
	nodes  int
	tl     *Timeline

	// Cursor: cumulative counters and reference count at the last flushed
	// boundary, the partially accumulated traffic matrix for the current
	// window, and the reference count that ends it.
	last         Counters
	lastRef      int64
	next         int64
	traffic      []int64
	trafficDirty bool

	// Per-client cursor (multi-tenant runs): cumulative per-client
	// samples at the last flushed boundary. Nil unless EnableClients ran.
	lastClients []Counters
}

// NewProbe builds a probe for a machine with the given node count. The
// configuration must be enabled (Window > 0); a disabled configuration is
// represented by not constructing a probe at all.
func NewProbe(cfg Config, nodes int) *Probe {
	if !cfg.Enabled() {
		panic("telemetry: NewProbe with disabled config")
	}
	return &Probe{
		window:  cfg.Window,
		nodes:   nodes,
		tl:      &Timeline{Window: cfg.Window, Nodes: nodes},
		next:    cfg.Window,
		traffic: make([]int64, nodes*nodes),
	}
}

// Timeline returns the capture the probe appends to.
func (p *Probe) Timeline() *Timeline { return p.tl }

// NextBoundary returns the global reference count that ends the current
// window — the machine caches it and compares per reference.
func (p *Probe) NextBoundary() int64 { return p.next }

// AddTraffic accumulates one remote fetch from requester src to home dst
// into the current window's matrix.
func (p *Probe) AddTraffic(src, dst addr.NodeID) {
	p.traffic[int(src)*p.nodes+int(dst)]++
	p.trafficDirty = true
}

// Relocation appends a threshold-crossing event. ref is the 1-based global
// reference index of the triggering access; the containing window ordinal
// is derived arithmetically so it is stable across snapshot/resume.
func (p *Probe) Relocation(ref int64, n addr.NodeID, pg addr.PageNum, count uint32) {
	p.tl.Events = append(p.tl.Events, Event{
		Ref:    ref,
		Window: (ref - 1) / p.window,
		Node:   n,
		Page:   pg,
		Count:  count,
	})
}

// Flush closes the current window at endRef given the machine's cumulative
// counter sample, appending one interval and advancing the cursor. A flush
// at the current boundary (endRef == lastRef — the run ended exactly on a
// window edge) is a no-op, so the machine's end-of-run flush is safe to
// call unconditionally.
func (p *Probe) Flush(cur Counters, endRef int64) {
	if endRef <= p.lastRef {
		return
	}
	iv := Interval{
		Index:    int64(len(p.tl.Intervals)),
		StartRef: p.lastRef,
		EndRef:   endRef,
		Delta:    cur.Sub(p.last),
	}
	if p.trafficDirty {
		iv.Traffic = append([]int64(nil), p.traffic...)
		for i := range p.traffic {
			p.traffic[i] = 0
		}
		p.trafficDirty = false
	}
	p.tl.Intervals = append(p.tl.Intervals, iv)
	p.last = cur
	p.lastRef = endRef
	p.next = endRef + p.window
}

// EnableClients switches the probe to multi-tenant mode: the timeline
// names the clients and every subsequent flush must go through
// FlushClients so each interval carries its per-client split.
func (p *Probe) EnableClients(names []string) {
	p.tl.Clients = append([]string(nil), names...)
	p.lastClients = make([]Counters, len(names))
}

// FlushClients is Flush for attributed runs: clients holds the machine's
// cumulative per-client counter samples (indexed like the names passed to
// EnableClients), and the appended interval's PerClient slice gets the
// per-client window deltas. Like Flush, a flush at the current boundary
// is a no-op.
func (p *Probe) FlushClients(cur Counters, endRef int64, clients []Counters) {
	n := len(p.tl.Intervals)
	p.Flush(cur, endRef)
	if len(p.tl.Intervals) == n {
		return
	}
	iv := &p.tl.Intervals[n]
	iv.PerClient = make([]Counters, len(clients))
	for i := range clients {
		iv.PerClient[i] = clients[i].Sub(p.lastClients[i])
	}
	copy(p.lastClients, clients)
}

// ProbeState is the probe's serializable cursor, carried in machine
// snapshots so a restored run continues its series bit-identically — even
// when the snapshot point falls mid-window. The timeline itself rides on
// the snapshot's stats.Run; the cursor carries only what the next flush
// needs.
type ProbeState struct {
	Window  int64
	Nodes   int
	Last    Counters
	LastRef int64
	Next    int64
	// Traffic is the partial current-window matrix, nil when clean.
	Traffic []int64
}

// State captures the probe's cursor.
func (p *Probe) State() ProbeState {
	st := ProbeState{
		Window:  p.window,
		Nodes:   p.nodes,
		Last:    p.last,
		LastRef: p.lastRef,
		Next:    p.next,
	}
	if p.trafficDirty {
		st.Traffic = append([]int64(nil), p.traffic...)
	}
	return st
}

// Restore installs a captured cursor and re-attaches the probe to tl (the
// restored run's timeline, which the next flush appends to).
func (p *Probe) Restore(st ProbeState, tl *Timeline) error {
	if tl == nil {
		return fmt.Errorf("telemetry: restore without a timeline")
	}
	if st.Window != p.window || st.Nodes != p.nodes {
		return fmt.Errorf("telemetry: cursor for window=%d nodes=%d, probe has window=%d nodes=%d",
			st.Window, st.Nodes, p.window, p.nodes)
	}
	if st.Traffic != nil && len(st.Traffic) != p.nodes*p.nodes {
		return fmt.Errorf("telemetry: cursor traffic matrix has %d cells, want %d", len(st.Traffic), p.nodes*p.nodes)
	}
	p.tl = tl
	p.last = st.Last
	p.lastRef = st.LastRef
	p.next = st.Next
	for i := range p.traffic {
		p.traffic[i] = 0
	}
	p.trafficDirty = false
	if st.Traffic != nil {
		copy(p.traffic, st.Traffic)
		p.trafficDirty = true
	}
	return nil
}
