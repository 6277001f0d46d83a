// Package traffic is the open-loop, multi-tenant traffic layer: a traffic
// spec names clients — each with a rate fraction, a stochastic arrival
// process, a phase schedule of existing workload specs or captured traces,
// and optional time-varying load — and the compiler interleaves the
// per-client reference streams by arrival time into one ordinary workload
// the existing machine replays unchanged.
//
// Where internal/spec describes what one application does, a traffic spec
// describes who is on the machine: the aggregate load of multiple tenants
// sharing a DSM system, the regime the paper's Section 5 competitive
// analysis frames per-app protocol behavior against. Arrival sequences are
// deterministic — each client draws from its own RNG derived from the spec
// seed and the client's *name* (never its index or a shared stream), so
// adding or removing one tenant leaves every other tenant's compiled
// sub-stream bit-identical.
//
// Example (a steady tenant colliding with a bursty one):
//
//	{
//	  "name": "collide",
//	  "clients": [
//	    {"name": "steady", "rate_fraction": 0.7,
//	     "arrival": {"process": "poisson"},
//	     "phases": [{"spec": "halo.json"}]},
//	    {"name": "bursty", "rate_fraction": 0.3,
//	     "arrival": {"process": "gamma", "cv": 4},
//	     "load": {"period": {"amplitude": 0.8, "cycles": 3}},
//	     "phases": [{"spec": "hotcold.json", "repeat": 2}]}
//	  ]
//	}
package traffic

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
)

// DefaultMeanGap is the mean inter-arrival compute time (cycles) of a
// client-CPU lane running at rate_fraction 1.0, used when the spec leaves
// mean_gap unset. It is on the order of the compute gaps the catalog
// workloads carry, so a full-rate open-loop client stresses the memory
// system about as hard as a closed-loop app does.
const DefaultMeanGap = 64

// Spec is a declarative multi-tenant traffic description.
type Spec struct {
	// Name identifies the scenario (harness registry, reports, traces).
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`

	// Seed perturbs every client's arrival RNG (each client's stream is
	// derived from this seed and the client's name). 0 keeps the package
	// default, so identical specs compile identical scenarios.
	Seed int64 `json:"seed,omitempty"`

	// MeanGap is the mean inter-arrival time in cycles for a client-CPU
	// lane at rate_fraction 1.0 (default DefaultMeanGap). Larger values
	// thin every client's load.
	MeanGap float64 `json:"mean_gap,omitempty"`

	Clients []Client `json:"clients"`
}

// Client is one tenant: a reference demand (phases), an intensity
// (rate_fraction, optionally time-varying via load), and an arrival
// process shaping how that demand spreads over time.
type Client struct {
	Name string `json:"name"`

	// RateFraction in (0, 1] scales the client's arrival rate relative to
	// a full-rate lane (mean inter-arrival = mean_gap / rate_fraction).
	// Fractions are independent across clients — they need not sum to 1,
	// so over- and under-subscribed machines are both expressible, and
	// removing a tenant never re-times the others.
	RateFraction float64 `json:"rate_fraction"`

	Arrival Arrival `json:"arrival"`

	// Load optionally modulates the client's rate over its run.
	Load *LoadShape `json:"load,omitempty"`

	// Phases schedule the client's reference demand: each names an
	// existing workload spec or a captured trace, replayed in order.
	Phases []PhaseRef `json:"phases"`
}

// Arrival selects the client's inter-arrival distribution. All processes
// are normalized to mean 1 and scaled by mean_gap/rate, so the process
// shapes burstiness without changing the client's average rate.
type Arrival struct {
	// Process is "poisson" (exponential inter-arrivals, cv 1), "gamma"
	// (cv > 1 bursty, cv < 1 smoothed), or "weibull" (heavy-tailed for
	// shape < 1).
	Process string `json:"process"`

	// CV is the gamma process's coefficient of variation (> 0; gamma
	// shape k = 1/cv²). Gamma only.
	CV float64 `json:"cv,omitempty"`

	// Shape is the weibull shape parameter (> 0; < 1 is heavy-tailed).
	// Weibull only.
	Shape float64 `json:"shape,omitempty"`
}

// LoadShape is a time-varying rate multiplier over the client's progress
// u in [0, 1) (fraction of its references issued): a linear ramp, a
// periodic (diurnal) modulation, or both multiplied together.
type LoadShape struct {
	Ramp   *Ramp   `json:"ramp,omitempty"`
	Period *Period `json:"period,omitempty"`
}

// Ramp linearly interpolates the rate multiplier from From to To over the
// first Over fraction of the client's run, holding To afterwards.
type Ramp struct {
	From float64 `json:"from"`
	To   float64 `json:"to"`
	// Over in (0, 1]; 0 means the whole run.
	Over float64 `json:"over,omitempty"`
}

// Period multiplies the rate by 1 + Amplitude*sin(2π(Cycles*u + Phase)):
// a diurnal swing compressed into the run.
type Period struct {
	// Amplitude in [0, 1): the swing never drives the rate to zero.
	Amplitude float64 `json:"amplitude"`
	// Cycles > 0 full periods over the client's run.
	Cycles float64 `json:"cycles"`
	// Phase in [0, 1) offsets the cycle start.
	Phase float64 `json:"phase,omitempty"`
}

// PhaseRef names one phase of a client's schedule: exactly one of Spec
// (a workload spec file) or Trace (a captured trace file), repeated
// Repeat times (0 means once). Paths are resolved relative to the traffic
// spec's directory at compile time.
type PhaseRef struct {
	Spec   string `json:"spec,omitempty"`
	Trace  string `json:"trace,omitempty"`
	Repeat int    `json:"repeat,omitempty"`
}

// Parse decodes and validates a traffic spec. Unknown fields are errors,
// so typos fail loudly instead of silently changing the scenario. Parse
// never touches the filesystem — phase paths are resolved by Compile.
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("traffic: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("traffic: trailing data after the JSON document")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// finitePos reports whether v is a finite value > 0.
func finitePos(v float64) bool {
	return v > 0 && !math.IsInf(v, 0)
}

// Validate checks structural consistency (machine-independent; phase
// files are read and sized at compile time).
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("traffic: missing name")
	}
	if s.MeanGap != 0 && !finitePos(s.MeanGap) {
		return fmt.Errorf("traffic %q: mean_gap %v (want finite > 0)", s.Name, s.MeanGap)
	}
	if len(s.Clients) == 0 {
		return fmt.Errorf("traffic %q: no clients", s.Name)
	}
	names := make(map[string]bool, len(s.Clients))
	for ci, c := range s.Clients {
		where := fmt.Sprintf("traffic %q: client %d", s.Name, ci)
		if c.Name == "" {
			return fmt.Errorf("%s: missing name", where)
		}
		where = fmt.Sprintf("traffic %q: client %q", s.Name, c.Name)
		if names[c.Name] {
			return fmt.Errorf("%s: duplicate name", where)
		}
		names[c.Name] = true
		if !(c.RateFraction > 0 && c.RateFraction <= 1) {
			return fmt.Errorf("%s: rate_fraction %v (want in (0, 1])", where, c.RateFraction)
		}
		if err := c.Arrival.validate(); err != nil {
			return fmt.Errorf("%s: %w", where, err)
		}
		if err := c.Load.validate(); err != nil {
			return fmt.Errorf("%s: %w", where, err)
		}
		if len(c.Phases) == 0 {
			return fmt.Errorf("%s: no phases", where)
		}
		for pi, ph := range c.Phases {
			switch {
			case ph.Spec == "" && ph.Trace == "":
				return fmt.Errorf("%s: phase %d names neither spec nor trace", where, pi)
			case ph.Spec != "" && ph.Trace != "":
				return fmt.Errorf("%s: phase %d names both spec and trace", where, pi)
			}
			if ph.Repeat < 0 {
				return fmt.Errorf("%s: phase %d has negative repeat", where, pi)
			}
		}
	}
	return nil
}

// validate checks the arrival process and rejects misplaced knobs: a cv on
// a non-gamma process (or a shape on a non-weibull one) would silently
// change nothing, the same contract checkStepFields enforces for workload
// specs.
func (a Arrival) validate() error {
	switch a.Process {
	case "poisson":
		if a.CV != 0 {
			return fmt.Errorf("arrival: cv is not used by process %q", a.Process)
		}
		if a.Shape != 0 {
			return fmt.Errorf("arrival: shape is not used by process %q", a.Process)
		}
	case "gamma":
		if a.Shape != 0 {
			return fmt.Errorf("arrival: shape is not used by process %q (gamma takes cv)", a.Process)
		}
		if !finitePos(a.CV) {
			return fmt.Errorf("arrival: gamma needs cv > 0, got %v", a.CV)
		}
	case "weibull":
		if a.CV != 0 {
			return fmt.Errorf("arrival: cv is not used by process %q (weibull takes shape)", a.Process)
		}
		if !finitePos(a.Shape) {
			return fmt.Errorf("arrival: weibull needs shape > 0, got %v", a.Shape)
		}
	default:
		return fmt.Errorf("arrival: unknown process %q (want poisson, gamma, or weibull)", a.Process)
	}
	return nil
}

// validate checks the load modulation's shape.
func (l *LoadShape) validate() error {
	if l == nil {
		return nil
	}
	if l.Ramp == nil && l.Period == nil {
		return fmt.Errorf("load: names neither ramp nor period")
	}
	if r := l.Ramp; r != nil {
		if !finitePos(r.From) || !finitePos(r.To) {
			return fmt.Errorf("load: ramp needs finite from > 0 and to > 0, got %v..%v", r.From, r.To)
		}
		if r.Over != 0 && !(r.Over > 0 && r.Over <= 1) {
			return fmt.Errorf("load: ramp over %v (want in (0, 1], 0 = whole run)", r.Over)
		}
	}
	if p := l.Period; p != nil {
		if !(p.Amplitude >= 0 && p.Amplitude < 1) {
			return fmt.Errorf("load: period amplitude %v (want in [0, 1))", p.Amplitude)
		}
		if !finitePos(p.Cycles) {
			return fmt.Errorf("load: period needs cycles > 0, got %v", p.Cycles)
		}
		if !(p.Phase >= 0 && p.Phase < 1) {
			return fmt.Errorf("load: period phase %v (want in [0, 1))", p.Phase)
		}
	}
	return nil
}
