package traffic

import (
	"strings"
	"testing"
)

func validSpec() *Spec {
	return &Spec{
		Name: "ok",
		Clients: []Client{
			{Name: "a", RateFraction: 0.5, Arrival: Arrival{Process: "poisson"},
				Phases: []PhaseRef{{Spec: "s.json"}}},
		},
	}
}

func TestSpecValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"missing name", func(s *Spec) { s.Name = "" }, "missing name"},
		{"no clients", func(s *Spec) { s.Clients = nil }, "no clients"},
		{"bad mean gap", func(s *Spec) { s.MeanGap = -1 }, "mean_gap"},
		{"client without name", func(s *Spec) { s.Clients[0].Name = "" }, "client 0"},
		{"duplicate client names", func(s *Spec) {
			s.Clients = append(s.Clients, s.Clients[0])
		}, "duplicate name"},
		{"zero rate", func(s *Spec) { s.Clients[0].RateFraction = 0 }, "rate_fraction"},
		{"rate above one", func(s *Spec) { s.Clients[0].RateFraction = 1.01 }, "rate_fraction"},
		{"unknown process", func(s *Spec) { s.Clients[0].Arrival.Process = "pareto" }, "process"},
		{"gamma without cv", func(s *Spec) { s.Clients[0].Arrival = Arrival{Process: "gamma"} }, "cv"},
		{"gamma with shape", func(s *Spec) { s.Clients[0].Arrival = Arrival{Process: "gamma", CV: 2, Shape: 1} }, "shape"},
		{"weibull with cv", func(s *Spec) { s.Clients[0].Arrival = Arrival{Process: "weibull", Shape: 0.7, CV: 1} }, "cv"},
		{"poisson with cv", func(s *Spec) { s.Clients[0].Arrival = Arrival{Process: "poisson", CV: 2} }, "cv"},
		{"weibull without shape", func(s *Spec) { s.Clients[0].Arrival = Arrival{Process: "weibull"} }, "shape"},
		{"poisson with shape", func(s *Spec) { s.Clients[0].Arrival = Arrival{Process: "poisson", Shape: 2} }, "shape"},
		{"no phases", func(s *Spec) { s.Clients[0].Phases = nil }, "phase"},
		{"phase names both", func(s *Spec) {
			s.Clients[0].Phases = []PhaseRef{{Spec: "a.json", Trace: "b.trace"}}
		}, "both spec and trace"},
		{"phase names neither", func(s *Spec) {
			s.Clients[0].Phases = []PhaseRef{{}}
		}, "neither spec nor trace"},
		{"negative repeat", func(s *Spec) {
			s.Clients[0].Phases = []PhaseRef{{Spec: "a.json", Repeat: -1}}
		}, "repeat"},
		{"empty load shape", func(s *Spec) { s.Clients[0].Load = &LoadShape{} }, "load"},
		{"ramp over out of range", func(s *Spec) {
			s.Clients[0].Load = &LoadShape{Ramp: &Ramp{From: 1, To: 2, Over: 1.5}}
		}, "over"},
		{"ramp nonpositive from", func(s *Spec) {
			s.Clients[0].Load = &LoadShape{Ramp: &Ramp{From: 0, To: 2}}
		}, "from"},
		{"period amplitude too big", func(s *Spec) {
			s.Clients[0].Load = &LoadShape{Period: &Period{Amplitude: 1, Cycles: 2}}
		}, "amplitude"},
		{"period without cycles", func(s *Spec) {
			s.Clients[0].Load = &LoadShape{Period: &Period{Amplitude: 0.5}}
		}, "cycles"},
		{"period phase out of range", func(s *Spec) {
			s.Clients[0].Load = &LoadShape{Period: &Period{Amplitude: 0.5, Cycles: 1, Phase: 1}}
		}, "phase"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := validSpec()
			tc.mut(s)
			err := s.Validate()
			if err == nil {
				t.Fatalf("Validate accepted a spec with %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	if err := validSpec().Validate(); err != nil {
		t.Fatalf("the base fixture must validate: %v", err)
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	doc := `{"name": "x", "burst": true, "clients": [{"name": "a", "rate_fraction": 1, "arrival": {"process": "poisson"}, "phases": [{"spec": "s.json"}]}]}`
	if _, err := Parse([]byte(doc)); err == nil {
		t.Error("Parse accepted a document with an unknown field")
	}
	trailing := `{"name": "x", "clients": [{"name": "a", "rate_fraction": 1, "arrival": {"process": "poisson"}, "phases": [{"spec": "s.json"}]}]} garbage`
	if _, err := Parse([]byte(trailing)); err == nil {
		t.Error("Parse accepted trailing garbage")
	}
}

func TestLoadShapeMultiplier(t *testing.T) {
	var nilShape *LoadShape
	if got := nilShape.multiplier(0.5); got != 1 {
		t.Errorf("nil shape multiplier = %v, want 1", got)
	}
	ramp := &LoadShape{Ramp: &Ramp{From: 1, To: 3, Over: 0.5}}
	if got := ramp.multiplier(0.25); got != 2 {
		t.Errorf("ramp at half its span = %v, want 2", got)
	}
	if got := ramp.multiplier(0.9); got != 3 {
		t.Errorf("ramp past its span = %v, want the plateau 3", got)
	}
	period := &LoadShape{Period: &Period{Amplitude: 0.5, Cycles: 1, Phase: 0.25}}
	// sin(2π(0·1 + 0.25)) = 1 → multiplier 1.5 at u=0.
	if got := period.multiplier(0); got < 1.49 || got > 1.51 {
		t.Errorf("period peak multiplier = %v, want 1.5", got)
	}
	// An omitted "over" spans the whole run.
	whole := &LoadShape{Ramp: &Ramp{From: 1, To: 3}}
	if got := whole.multiplier(0.5); got != 2 {
		t.Errorf("default-span ramp at u=0.5 = %v, want 2", got)
	}
	// A deep trough is floored: the client slows but never stalls.
	trough := &LoadShape{Ramp: &Ramp{From: 1e-12, To: 1e-12}}
	if got := trough.multiplier(0.5); got != 1e-9 {
		t.Errorf("trough multiplier = %v, want the 1e-9 floor", got)
	}
}

func TestSamplerPanicsOnUnvalidatedProcess(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("sampler did not panic on an unvalidated process")
		}
	}()
	sampler(Arrival{Process: "pareto"})
}
