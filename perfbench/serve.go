package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rnuma/internal/harness"
	"rnuma/internal/report"
	"rnuma/internal/serve"
	"rnuma/internal/stats"
)

// serveDigest pins the SHA-256 of the four cold reports (in request-name
// order, each followed by a NUL).
const serveDigest = "48455c2173843a46b973f43d86aec3cdced09a0302e8dc8a95ed13747a9b63a8"

// warmPasses is how many warm passes a round makes; each resubmits every
// request weight times, 5 jobs a pass, so a round has 100 warm jobs and
// the warm p90 ten samples beyond it.
const warmPasses = 20

// serveReq is one distinct request of the mix; artifact names the input
// its Artifact field is filled from, and weight how often a warm pass
// resubmits it.
type serveReq struct {
	name, artifact string
	weight         int
	req            serve.JobRequest
}

// serveRequests is the mix. Resubmitted, the four cost about 22 (replay),
// 50 (fft sweep), 85 (em3d sweep) and 240 (grid) ms of daemon CPU each on
// the reference machine. The em3d sweep goes twice per pass so that the
// job median falls inside the sweeps' cluster and the p90 inside the
// grids', not on the edge between two clusters, where a percentile jumps
// between them from run to run.
var serveRequests = []serveReq{
	{"em3d-grid", "em3d", 1, serve.JobRequest{Type: "grid", Axis: "block", Values: "16,32,64,128", AxisB: "threshold", ValuesB: "16,64,256"}},
	{"em3d-sweep", "em3d", 2, serve.JobRequest{Type: "sweep", Axis: "threshold", Values: "16,64,256,1024"}},
	{"em3d-replay", "em3d", 1, serve.JobRequest{Type: "replay", Normalize: true}},
	{"fft-nodes", "fft", 1, serve.JobRequest{Type: "sweep", Axis: "nodes", Values: "4,8,16"}},
}

// serveMix is closed-loop traffic from one client against a fresh
// rnuma-serve daemon over an empty -store-dir: every request once (cold:
// simulate, then commit to disk), then warmPasses resubmissions (warm:
// memory-store reads), then a daemon restart over the same directory and
// every request once more (disk loads). Each job is timed from submit to
// report received.
type serveMix struct {
	rng            *rand.Rand
	bin, root, tmp string
	inputs         map[string][]byte
	client         *http.Client
}

// tally accumulates one round's job observations.
type tally struct {
	cold, warm, restart []time.Duration            // submit to report received
	cpu                 []time.Duration            // daemon CPU per job, every job
	coldCPU             time.Duration              // daemon CPU over the cold pass
	warmCPU             map[string][]time.Duration // resubmissions' CPU by request
	submit, report      []time.Duration            // client-side request latencies
	queue, exec         []time.Duration            // from the daemon's job timestamps
	sims, failed        int64
}

func newServeMix(seed int64, bin, root, scratch string) *serveMix {
	return &serveMix{
		rng: rand.New(rand.NewSource(seed)), bin: bin, root: root, tmp: scratch,
		client: &http.Client{Timeout: 2 * time.Minute},
	}
}

// prepare records the em3d capture and reads the committed fft capture.
func (s *serveMix) prepare() error {
	em3d, err := recordEM3D()
	if err != nil {
		return err
	}
	fft, err := os.ReadFile(filepath.Join(s.root, "testdata", "ci", "fft.trace"))
	if err != nil {
		return err
	}
	s.inputs = map[string][]byte{"em3d": em3d, "fft": fft}
	return nil
}

func (s *serveMix) expected() string { return serveDigest }

// daemon is one running rnuma-serve process.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	drained chan struct{}
	usage   *syscall.Rusage
}

// startDaemon launches rnuma-serve on an ephemeral port and waits for its
// "listening on" line.
func (s *serveMix) startDaemon(dir string) (*daemon, error) {
	cmd := exec.Command(s.bin, "-addr", "127.0.0.1:0", "-store-dir", dir,
		"-workers", fmt.Sprint(workers), "-jobs", fmt.Sprint(workers))
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.drained)
		r := bufio.NewReader(pipe)
		for {
			line, err := r.ReadString('\n')
			if _, a, ok := strings.Cut(line, "listening on "); ok {
				addr <- strings.TrimSpace(a)
			}
			if err != nil {
				return
			}
		}
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
		return d, nil
	case <-d.drained:
		d.stop()
		return nil, fmt.Errorf("rnuma-serve exited before listening")
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("rnuma-serve did not start listening within 30s")
	}
}

// stop terminates the daemon and waits for it; it is idempotent.
func (d *daemon) stop() {
	if d == nil || d.usage != nil || d.cmd.Process == nil {
		return
	}
	d.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already gone is fine
	select {
	case <-d.drained:
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill() //nolint:errcheck // escalate a stuck shutdown
		<-d.drained
	}
	d.cmd.Wait() //nolint:errcheck // a SIGTERM exit is the expected outcome
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		d.usage = ru
	} else {
		d.usage = &syscall.Rusage{}
	}
}

func (d *daemon) cpu() time.Duration {
	return time.Duration(d.usage.Utime.Nano() + d.usage.Stime.Nano())
}

// cpuNow is the running daemon's CPU time so far: the sum over its
// threads of the on-CPU nanoseconds in /proc/<pid>/task/*/schedstat.
// With one job in flight at a time, its difference across a job is that
// job's CPU cost.
func (d *daemon) cpuNow() time.Duration {
	dir := fmt.Sprintf("/proc/%d/task", d.cmd.Process.Pid)
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name(), "schedstat"))
		if err != nil {
			continue // the thread exited between the listing and the read
		}
		if f := strings.Fields(string(b)); len(f) > 0 {
			n, _ := strconv.ParseInt(f[0], 10, 64)
			total += n
		}
	}
	return time.Duration(total)
}

// call performs one HTTP request and returns the body, failing on any
// status other than want.
func (s *serveMix) call(method, url string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want && !(want == http.StatusCreated && resp.StatusCode == http.StatusOK) {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// upload posts both captures and returns their artifact ids.
func (s *serveMix) upload(d *daemon) (map[string]string, error) {
	ids := make(map[string]string, len(s.inputs))
	for _, name := range []string{"em3d", "fft"} {
		body, err := s.call("POST", d.base+"/api/v1/artifacts", s.inputs[name], http.StatusCreated)
		if err != nil {
			return nil, err
		}
		var a serve.Artifact
		if err := json.Unmarshal(body, &a); err != nil {
			return nil, err
		}
		ids[name] = a.ID
	}
	return ids, nil
}

// job submits one request, follows its progress to the end, and fetches
// its report; the latency runs from submit to report received.
func (s *serveMix) job(d *daemon, r serveReq, ids map[string]string, t *tally, tr *tracer, parent int) ([]byte, serve.JobInfo, time.Duration, error) {
	var info serve.JobInfo
	req := r.req
	req.Artifact = ids[r.artifact]
	body, _ := json.Marshal(req)
	jid := tr.begin("serve.job", parent)
	c0 := d.cpuNow()
	t0 := time.Now()
	id := tr.begin("serve.submit", jid)
	resp, err := s.call("POST", d.base+"/api/v1/jobs", body, http.StatusAccepted)
	tr.end(id)
	if err != nil {
		return nil, info, 0, err
	}
	tSub := time.Now()
	if err := json.Unmarshal(resp, &info); err != nil {
		return nil, info, 0, err
	}
	id = tr.begin("serve.wait", jid)
	_, err = s.call("GET", d.base+"/api/v1/jobs/"+info.ID+"/progress?follow=1", nil, http.StatusOK)
	tr.end(id)
	if err != nil {
		return nil, info, 0, err
	}
	tWait := time.Now()
	id = tr.begin("serve.report", jid)
	report, err := s.call("GET", d.base+"/api/v1/jobs/"+info.ID+"/report", nil, http.StatusOK)
	tRep := time.Now()
	t.cpu = append(t.cpu, d.cpuNow()-c0)
	tr.end(id)
	tr.end(jid)
	if err != nil {
		return nil, info, 0, fmt.Errorf("%s: %w", r.name, err)
	}
	t.submit = append(t.submit, tSub.Sub(t0))
	t.report = append(t.report, tRep.Sub(tWait))
	resp, err = s.call("GET", d.base+"/api/v1/jobs/"+info.ID, nil, http.StatusOK)
	if err != nil {
		return nil, info, 0, err
	}
	if err := json.Unmarshal(resp, &info); err != nil {
		return nil, info, 0, err
	}
	if info.Started != nil && info.Finished != nil {
		t.queue = append(t.queue, info.Started.Sub(info.Created))
		t.exec = append(t.exec, info.Finished.Sub(*info.Started))
	}
	t.sims += info.Simulations
	return report, info, tRep.Sub(t0), nil
}

// pass submits every request in a seed-drawn order, checking each report
// against want (nil on the cold pass, which records them). A warm pass
// submits each request weight times, a cold or restart pass once.
func (s *serveMix) pass(d *daemon, ids map[string]string, want map[string][]byte, warm bool, t *tally, tr *tracer, parent int) (map[string][]byte, []time.Duration, error) {
	var order []serveReq
	for _, r := range serveRequests {
		for n := 0; n < r.weight && (warm || n == 0); n++ {
			order = append(order, r)
		}
	}
	s.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	got := make(map[string][]byte, len(serveRequests))
	var lats []time.Duration
	for _, r := range order {
		report, info, lat, err := s.job(d, r, ids, t, tr, parent)
		if err != nil {
			return nil, nil, err
		}
		lats = append(lats, lat)
		if warm {
			t.warmCPU[r.name] = append(t.warmCPU[r.name], t.cpu[len(t.cpu)-1])
		}
		got[r.name] = report
		var bad string
		switch {
		case info.Status != serve.StatusDone:
			bad = "ended " + info.Status
		case want != nil && info.Simulations != 0:
			bad = fmt.Sprintf("ran %d simulations on a warm store", info.Simulations)
		case want != nil && !bytes.Equal(report, want[r.name]):
			bad = "report differs from its cold report"
		}
		if bad != "" {
			t.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s job %s %s\n", r.name, info.ID, bad)
		}
	}
	return got, lats, nil
}

func (s *serveMix) storeStats(d *daemon) (harness.StoreStats, error) {
	body, err := s.call("GET", d.base+"/api/v1/store", nil, http.StatusOK)
	if err != nil {
		return harness.StoreStats{}, err
	}
	var st struct {
		Store harness.StoreStats `json:"store"`
	}
	err = json.Unmarshal(body, &st)
	return st.Store, err
}

func (s *serveMix) round(tr *tracer) (*roundStats, error) {
	dir, err := os.MkdirTemp(s.tmp, "serve-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	t := tally{warmCPU: map[string][]time.Duration{}}
	root := tr.begin("run.round", -1)
	var d1, d2 *daemon
	defer func() {
		d1.stop()
		d2.stop()
	}()
	t0 := time.Now()

	// Cold pass, then the warm passes, on the first daemon.
	id := tr.begin("serve.daemon_start", root)
	d1, err = s.startDaemon(dir)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("serve.upload", root)
	ids, err := s.upload(d1)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	tCold := time.Now()
	cold, lats, err := s.pass(d1, ids, nil, false, &t, tr, root)
	if err != nil {
		return nil, err
	}
	coldWall := time.Since(tCold)
	t.cold = lats
	for _, c := range t.cpu {
		t.coldCPU += c
	}
	// A cold request may find its configurations already simulated by an
	// earlier one (the replay's runs are points of the sweep), so only the
	// cold pass as a whole must simulate.
	if t.sims == 0 {
		t.failed++
		fmt.Fprintln(os.Stderr, "perfbench: the cold pass ran no simulations")
	}
	// The grid request is EXPERIMENTS.md's full-scale em3d grid.
	if err := checkHeatMap(string(cold["em3d-grid"])); err != nil {
		t.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
	refs, err := storedRefs(dir)
	if err != nil {
		return nil, err
	}
	for p := 0; p < warmPasses; p++ {
		_, lats, err := s.pass(d1, ids, cold, true, &t, tr, root)
		if err != nil {
			return nil, err
		}
		t.warm = append(t.warm, lats...)
	}
	st1, err := s.storeStats(d1)
	if err != nil {
		return nil, err
	}
	id = tr.begin("serve.daemon_stop", root)
	d1.stop()
	tr.end(id)
	s.client.CloseIdleConnections()

	// Restart over the same store directory: every request once more.
	id = tr.begin("serve.daemon_start", root)
	d2, err = s.startDaemon(dir)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("serve.upload", root)
	ids, err = s.upload(d2)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	if _, t.restart, err = s.pass(d2, ids, cold, false, &t, tr, root); err != nil {
		return nil, err
	}
	st2, err := s.storeStats(d2)
	if err != nil {
		return nil, err
	}
	if st2.DiskHits == 0 {
		t.failed++
		fmt.Fprintln(os.Stderr, "perfbench: restarted daemon served no disk hits")
	}
	id = tr.begin("serve.daemon_stop", root)
	d2.stop()
	tr.end(id)
	s.client.CloseIdleConnections()
	wall := time.Since(t0)
	tr.end(root)
	var by []string
	for _, r := range serveRequests {
		by = append(by, fmt.Sprintf("%s %.1fms", r.name, median(ms(t.warmCPU[r.name]))))
	}
	fmt.Fprintf(os.Stderr, "perfbench: resubmitted job CPU p50 by request: %s\n", strings.Join(by, ", "))

	jobs := append(append(append([]time.Duration(nil), t.cold...), t.warm...), t.restart...)
	rss := d1.usage.Maxrss
	if d2.usage.Maxrss > rss {
		rss = d2.usage.Maxrss
	}
	warm := ms(t.warm)
	return &roundStats{
		wall: wall, cpu: d1.cpu() + d2.cpu(), rssKB: rss,
		jobs: jobs, jobCPU: t.cpu, refs: refs, refsWall: coldWall, refsCPU: t.coldCPU,
		attempted: int64(len(jobs)), failed: t.failed,
		digest: reportDigest(cold),
		layer: map[string]float64{
			"harness.sims":             float64(t.sims),
			"serve.sims":               float64(t.sims),
			"serve.jobs":               float64(len(jobs)),
			"serve.warm_jobs":          float64(len(warm)),
			"serve.submit_ms":          median(ms(t.submit)),
			"serve.queue_ms":           median(ms(t.queue)),
			"serve.exec_ms":            median(ms(t.exec)),
			"serve.report_ms":          median(ms(t.report)),
			"serve.store_hits":         float64(st1.Hits + st2.Hits),
			"serve.disk_hits":          float64(st1.DiskHits + st2.DiskHits),
			"serve.cold_job_p50_ms":    median(ms(t.cold)),
			"serve.warm_job_p50_ms":    median(warm),
			"serve.warm_job_p90_ms":    percentile(warm, 90),
			"serve.restart_job_p50_ms": median(ms(t.restart)),
		},
	}, nil
}

// storedRefs sums the references of every result record the daemon
// committed to its store directory (the on-disk form harness.DiskStore
// writes: one gob record per simulation).
func storedRefs(dir string) (int64, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.run.gob"))
	if err != nil {
		return 0, err
	}
	var refs int64
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return 0, err
		}
		var rec struct {
			Version int
			Key     string
			Run     *stats.Run
		}
		err = gob.NewDecoder(f).Decode(&rec)
		f.Close()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", p, err)
		}
		if rec.Run != nil {
			refs += rec.Run.Refs
		}
	}
	return refs, nil
}

// reportDigest hashes the cold reports in request-name order.
func reportDigest(reports map[string][]byte) string {
	names := make([]string, 0, len(reports))
	for n := range reports {
		names = append(names, n)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		h.Write(reports[n])
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// extras measures the layers under the daemon's heaviest requests on the
// em3d capture, plus the rendering a grid job does (text report, JSON
// document), which the warm path pays on every resubmission.
func (s *serveMix) extras(m map[string]float64, scratch string) error {
	g := newGrid(workers)
	g.data = s.inputs["em3d"]
	if err := g.extras(m, scratch); err != nil {
		return err
	}
	h := harness.New(1.0)
	h.Workers = workers
	grid, err := h.SweepGrid(g.data, harness.AxisBlockSize, sweepValues(gridBlocks), harness.AxisThreshold, sweepValues(gridThresholds))
	if err != nil {
		return err
	}
	d, err := layerTime(func() (time.Duration, error) {
		t := time.Now()
		report.Grid(io.Discard, grid, 0)
		_, err := json.Marshal(report.NewGridDoc(grid, 0))
		return time.Since(t), err
	})
	m["report.render_ms"] = float64(d) / float64(time.Millisecond)
	return err
}
