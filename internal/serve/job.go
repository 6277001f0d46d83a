package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"rnuma/internal/config"
	"rnuma/internal/harness"
	"rnuma/internal/traffic"
	"rnuma/internal/workloads"
)

// JobRequest is one job submission. Type selects the experiment; the
// remaining fields apply per type (see the field comments).
type JobRequest struct {
	// Type is "replay", "sweep", "grid", "diffstats", or "experiments".
	Type string `json:"type"`

	// Artifact references the input (ID, unique ID prefix, or unique
	// name) for replay, sweep, and diffstats.
	Artifact string `json:"artifact,omitempty"`
	// System names the simulated design: ccnuma, scoma, rnuma, or ideal
	// (default rnuma). Replay and diffstats.
	System string `json:"system,omitempty"`
	// Threshold overrides R-NUMA's relocation threshold when > 0.
	Threshold int `json:"threshold,omitempty"`
	// Normalize also runs the same-shape ideal machine and reports
	// execution time relative to it (replay only).
	Normalize bool `json:"normalize,omitempty"`

	// Axis and Values define a sweep: axis nodes|dilate|block|page|threshold
	// and a comma-separated value list ("4,8,16"; rationals on dilate).
	// Grid jobs use them as the X axis (its transform applies first).
	Axis   string `json:"axis,omitempty"`
	Values string `json:"values,omitempty"`

	// AxisB and ValuesB are a grid job's Y axis; KneeBound overrides the
	// knee detector's R-NUMA/best bound when > 0 (default 1.10).
	AxisB     string  `json:"axisB,omitempty"`
	ValuesB   string  `json:"valuesB,omitempty"`
	KneeBound float64 `json:"kneeBound,omitempty"`

	// ArtifactB and SystemB are diffstats' second run (SystemB defaults
	// to System).
	ArtifactB string `json:"artifactB,omitempty"`
	SystemB   string `json:"systemB,omitempty"`

	// Figures selects paper figures for experiments jobs: "5", "6", "7",
	// "8", "9", "table4" (default "6"). Apps restricts the application
	// list (default: the full catalog).
	Figures []string `json:"figures,omitempty"`
	Apps    []string `json:"apps,omitempty"`
}

// Job statuses.
const (
	StatusQueued  = "queued"
	StatusRunning = "running"
	StatusDone    = "done"
	StatusFailed  = "failed"
)

// JobInfo is a job's externally visible state.
type JobInfo struct {
	ID       string     `json:"id"`
	Request  JobRequest `json:"request"`
	Status   string     `json:"status"`
	Error    string     `json:"error,omitempty"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	// Simulations counts simulations this job executed itself; results
	// its harness got from the shared store (earlier jobs, concurrent
	// jobs, or disk) are not included. A warm resubmission reports 0.
	Simulations int64 `json:"simulations"`
}

// jobState is one job's internal state.
type jobState struct {
	id       string
	req      JobRequest
	job      Job // req resolved at submission
	created  time.Time
	progress *progressBuffer

	mu       sync.Mutex
	status   string
	err      error
	started  time.Time
	finished time.Time
	sims     int64
	text     string // rendered text report (valid when done)
	doc      any    // JSON report document (valid when done)
}

func (js *jobState) info() JobInfo {
	js.mu.Lock()
	defer js.mu.Unlock()
	info := JobInfo{
		ID:          js.id,
		Request:     js.req,
		Status:      js.status,
		Created:     js.created,
		Simulations: js.sims,
	}
	if js.err != nil {
		info.Error = js.err.Error()
	}
	if !js.started.IsZero() {
		t := js.started
		info.Started = &t
	}
	if !js.finished.IsZero() {
		t := js.finished
		info.Finished = &t
	}
	return info
}

func (js *jobState) simulations() int64 {
	js.mu.Lock()
	defer js.mu.Unlock()
	return js.sims
}

// progressBuffer accumulates a job's progress stream (the harness's
// Progress/Log lines) for polling and streaming reads; done closes when
// the job finishes.
type progressBuffer struct {
	mu   sync.Mutex
	buf  []byte
	done chan struct{}
}

func newProgressBuffer() *progressBuffer {
	return &progressBuffer{done: make(chan struct{})}
}

func (b *progressBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	b.buf = append(b.buf, p...)
	b.mu.Unlock()
	return len(p), nil
}

// from returns the bytes at and after offset, plus the next offset.
func (b *progressBuffer) from(off int) ([]byte, int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if off < 0 {
		off = 0
	}
	if off > len(b.buf) {
		off = len(b.buf)
	}
	out := append([]byte(nil), b.buf[off:]...)
	return out, off + len(out)
}

func (b *progressBuffer) finish() { close(b.done) }

// Submit resolves a request, assigns it an ID, and schedules it; the
// job runs asynchronously (bounded by Options.MaxJobs).
func (s *Server) Submit(req JobRequest) (*jobState, error) {
	job, err := s.resolve(req)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.jobSeq++
	js := &jobState{
		id:       fmt.Sprintf("j%d", s.jobSeq),
		req:      req,
		job:      job,
		created:  time.Now(),
		progress: newProgressBuffer(),
		status:   StatusQueued,
	}
	s.jobs[js.id] = js
	s.mu.Unlock()
	s.logf("job %s: submitted %s", js.id, req.Type)
	go s.run(js)
	return js, nil
}

// valueError marks a request whose fields are present but semantically
// invalid — an unparseable axis or value list, an unknown system, figure
// or application, an input of the wrong kind: the submission is
// well-formed JSON with the right fields, so the API answers 422 (naming
// the offending token) rather than a generic 400.
type valueError struct{ err error }

func (e *valueError) Error() string { return e.err.Error() }
func (e *valueError) Unwrap() error { return e.err }

// resolve turns a request into an executable Job before it occupies a
// job slot: artifact references must resolve (400 when they don't), and
// systems, axis values, figures, applications, points and the machine a
// trace needs must be valid (422).
func (s *Server) resolve(req JobRequest) (Job, error) {
	job := Job{Type: req.Type, Normalize: req.Normalize, KneeBound: req.KneeBound}
	var err error
	switch req.Type {
	case "replay":
		if job.Artifact, err = s.artifact(req.Artifact); err != nil {
			return job, err
		}
		if job.System, err = systemFor(req.System, req.Threshold); err != nil {
			return job, err
		}
		if err := checkSystem(job.Artifact, job.System); err != nil {
			return job, err
		}
		return job, checkPhases(job.Artifact)
	case "sweep":
		if job.Artifact, err = s.traceArtifact(req.Artifact, req.Type); err != nil {
			return job, err
		}
		if req.Axis == "" || req.Values == "" {
			return job, fmt.Errorf("serve: sweep needs axis and values")
		}
		if job.Axis, job.Values, err = parseAxisValues(req.Axis, req.Values); err != nil {
			return job, err
		}
		return job, checkPoints(job)
	case "grid":
		if job.Artifact, err = s.traceArtifact(req.Artifact, req.Type); err != nil {
			return job, err
		}
		if req.Axis == "" || req.Values == "" || req.AxisB == "" || req.ValuesB == "" {
			return job, fmt.Errorf("serve: grid needs axis, values, axisB, and valuesB")
		}
		if job.Axis, job.Values, err = parseAxisValues(req.Axis, req.Values); err != nil {
			return job, err
		}
		if job.AxisB, job.ValuesB, err = parseAxisValues(req.AxisB, req.ValuesB); err != nil {
			return job, err
		}
		if job.Axis == job.AxisB {
			return job, &valueError{fmt.Errorf("serve: grid axes must differ (both %s)", job.Axis)}
		}
		if req.KneeBound < 0 {
			return job, &valueError{fmt.Errorf("serve: bad kneeBound %v (must be >= 0)", req.KneeBound)}
		}
		return job, checkPoints(job)
	case "diffstats":
		if job.Artifact, err = s.traceArtifact(req.Artifact, req.Type); err != nil {
			return job, err
		}
		if job.ArtifactB, err = s.traceArtifact(req.ArtifactB, req.Type); err != nil {
			return job, err
		}
		if job.System, err = systemFor(req.System, req.Threshold); err != nil {
			return job, err
		}
		job.SystemB = job.System
		if req.SystemB != "" {
			if job.SystemB, err = systemFor(req.SystemB, req.Threshold); err != nil {
				return job, err
			}
		}
		if err := checkSystem(job.Artifact, job.System); err != nil {
			return job, err
		}
		return job, checkSystem(job.ArtifactB, job.SystemB)
	case "experiments":
		job.Figures, job.Apps = req.Figures, req.Apps
		if len(job.Figures) == 0 {
			job.Figures = []string{"6"}
		}
		if len(job.Apps) == 0 {
			job.Apps = harness.AllApps()
		}
		for _, f := range job.Figures {
			if _, ok := figures[f]; !ok {
				return job, &valueError{fmt.Errorf("serve: unknown figure %q (want 5, 6, 7, 8, 9, or table4)", f)}
			}
		}
		for _, app := range job.Apps {
			if _, ok := workloads.ByName(app); !ok {
				return job, &valueError{fmt.Errorf("serve: unknown application %q", app)}
			}
		}
		return job, nil
	}
	return job, fmt.Errorf("serve: unknown job type %q (want replay, sweep, grid, diffstats, or experiments)", req.Type)
}

// traceArtifact resolves an artifact reference that must name a trace.
func (s *Server) traceArtifact(ref, jobType string) (*Artifact, error) {
	a, err := s.artifact(ref)
	if err != nil {
		return nil, err
	}
	if a.Kind != harness.KindTrace {
		return nil, &valueError{fmt.Errorf("serve: %s needs a trace artifact, %s is a %s", jobType, a.ID[:12], a.Kind)}
	}
	return a, nil
}

// checkPoints rejects a sweep point or grid cell the job's trace fails.
func checkPoints(job Job) error {
	if err := harness.CheckPoints(job.Artifact.in.Header, job.Axis, job.Values, job.AxisB, job.ValuesB); err != nil {
		return &valueError{err}
	}
	return nil
}

// checkSystem rejects an input no machine sized from sys can run: a
// trace whose nodes do not divide its CPUs.
func checkSystem(a *Artifact, sys config.System) error {
	if _, err := a.in.System(sys); err != nil {
		return &valueError{err}
	}
	return nil
}

// checkPhases rejects a traffic scenario whose phase files the job could
// not read (missing, not regular, or past the phase bound), resolving each
// path against the artifact's base directory as the job does.
func checkPhases(a *Artifact) error {
	if a.Kind != harness.KindTraffic {
		return nil
	}
	s, err := traffic.Parse(a.data)
	if err == nil {
		err = s.CheckPhases(a.baseDir)
	}
	if err != nil {
		return &valueError{err}
	}
	return nil
}

// systemFor resolves a request's system name (default rnuma) and
// threshold override.
func systemFor(name string, threshold int) (config.System, error) {
	if name == "" {
		name = "rnuma"
	}
	sys, err := config.SystemByName(name)
	if err != nil {
		return sys, &valueError{err}
	}
	if threshold > 0 {
		sys.Threshold = threshold
	}
	return sys, nil
}

// parseAxisValues resolves an axis name and its comma-separated value
// list, marking failures as value errors that name the offending token.
func parseAxisValues(axisName, values string) (harness.Axis, []harness.SweepValue, error) {
	axis, err := harness.ParseAxis(axisName)
	if err != nil {
		return 0, nil, &valueError{err}
	}
	vals, err := harness.ParseSweepValues(axis, values)
	if err != nil {
		return 0, nil, &valueError{err}
	}
	if len(vals) == 0 {
		return 0, nil, &valueError{fmt.Errorf("serve: %s values %q name no points", axis, values)}
	}
	return axis, vals, nil
}

// run executes one job through a slot of the job semaphore.
func (s *Server) run(js *jobState) {
	s.sem <- struct{}{}
	defer func() { <-s.sem }()

	js.mu.Lock()
	js.status = StatusRunning
	js.started = time.Now()
	js.mu.Unlock()

	var (
		text string
		doc  any
		sims int64
		err  error
	)
	func() {
		// A panicking job must fail like any other error: without the
		// recover it would permanently consume this semaphore slot, leave
		// the job "running" forever, and never finish the progress stream.
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("serve: job %s panicked: %v", js.id, r)
			}
		}()
		text, doc, sims, err = s.execute(js)
	}()

	// Log before publishing the outcome, so a client that sees the job
	// finished also sees its log line.
	if err != nil {
		s.logf("job %s: failed: %v", js.id, err)
	} else {
		s.logf("job %s: done (%d new simulations)", js.id, sims)
	}
	js.mu.Lock()
	js.finished = time.Now()
	js.sims = sims
	if err != nil {
		js.status = StatusFailed
		js.err = err
	} else {
		js.status = StatusDone
		js.text, js.doc = text, doc
	}
	js.mu.Unlock()
	js.progress.finish()
}

// job resolves a job ID.
func (s *Server) job(id string) (*jobState, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	js, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("serve: no job %q", id)
	}
	return js, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "serve: bad job request: %v", err)
		return
	}
	js, err := s.Submit(req)
	if err != nil {
		code := http.StatusBadRequest
		var ve *valueError
		if errors.As(err, &ve) {
			code = http.StatusUnprocessableEntity
		}
		writeError(w, code, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, js.info())
}

// handleProgress serves a job's progress stream. Plain GET returns the
// bytes from ?offset= with X-Next-Offset and X-Job-Status headers;
// ?follow=1 streams (chunked, flushed) until the job finishes.
func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	js, err := s.job(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	off, _ := strconv.Atoi(r.URL.Query().Get("offset"))
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if r.URL.Query().Get("follow") == "" {
		data, next := js.progress.from(off)
		w.Header().Set("X-Next-Offset", strconv.Itoa(next))
		w.Header().Set("X-Job-Status", js.info().Status)
		w.Write(data) //nolint:errcheck // client went away; nothing to do
		return
	}
	flusher, _ := w.(http.Flusher)
	for {
		data, next := js.progress.from(off)
		if len(data) > 0 {
			if _, err := w.Write(data); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
			off = next
		}
		select {
		case <-js.progress.done:
			// Drain whatever landed between the read and the close.
			if data, _ := js.progress.from(off); len(data) > 0 {
				w.Write(data) //nolint:errcheck // final drain on a closing stream
			}
			return
		case <-r.Context().Done():
			return
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// handleReport serves a finished job's rendered report: ?format=text
// (default) or ?format=json. 409 while the job is still queued/running.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	js, err := s.job(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	js.mu.Lock()
	status, jerr, text, doc := js.status, js.err, js.text, js.doc
	js.mu.Unlock()
	switch status {
	case StatusQueued, StatusRunning:
		writeError(w, http.StatusConflict, "serve: job %s is %s", js.id, status)
		return
	case StatusFailed:
		writeError(w, http.StatusUnprocessableEntity, "serve: job %s failed: %v", js.id, jerr)
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, text)
	case "json":
		writeJSON(w, http.StatusOK, doc)
	default:
		writeError(w, http.StatusBadRequest, "serve: unknown report format %q (want text or json)", format)
	}
}
