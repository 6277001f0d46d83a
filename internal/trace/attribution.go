package trace

import "fmt"

// ClientSpan is a run of consecutive records on one CPU attributed to a
// single traffic client. Spans run-length encode the per-record client
// identity of a compiled multi-tenant stream: the merge that interleaves
// client lanes by arrival time emits long same-client runs, so the RLE
// form costs a few entries per window instead of one per reference.
type ClientSpan struct {
	// Client indexes Attribution.Clients.
	Client int32
	// N is the span's record count (barriers included, matching the
	// stream's record numbering).
	N int64
}

// Attribution maps every record of a multi-stream workload back to the
// traffic client that issued it. The machine consumes it at replay time
// to split the run's counters per tenant; it travels on the Workload, not
// in the trace file (the encoded trace stays replayable by tools that
// know nothing about clients).
type Attribution struct {
	// Clients names the tenants, in the order spans reference them.
	Clients []string
	// Spans holds one RLE sequence per CPU covering that CPU's records
	// in order (the per-CPU span lengths sum to the stream's record
	// count, barriers included).
	Spans [][]ClientSpan
}

// Validate checks internal consistency: at least one client, every span
// referencing a named client with a positive length.
func (a *Attribution) Validate() error {
	if len(a.Clients) == 0 {
		return fmt.Errorf("trace: attribution with no clients")
	}
	for cpu, spans := range a.Spans {
		for i, s := range spans {
			if s.Client < 0 || int(s.Client) >= len(a.Clients) {
				return fmt.Errorf("trace: cpu %d span %d names client %d of %d", cpu, i, s.Client, len(a.Clients))
			}
			if s.N < 1 {
				return fmt.Errorf("trace: cpu %d span %d has length %d", cpu, i, s.N)
			}
		}
	}
	return nil
}

// Records returns the record count the spans cover, on every CPU.
func (a *Attribution) Records() int64 {
	var n int64
	for _, spans := range a.Spans {
		for _, s := range spans {
			n += s.N
		}
	}
	return n
}
