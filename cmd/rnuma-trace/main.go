// Command rnuma-trace captures, inspects, slices, and replays
// memory-reference traces in the tracefile binary format.
//
// Usage:
//
//	rnuma-trace record -app <name>  [-o out.trace] [-scale S] [-seed N] [-nodes N] [-cpus N]
//	rnuma-trace gen    -spec <file> [-o out.trace] [-scale S] [-seed N] [-nodes N] [-cpus N]
//	rnuma-trace gen    -traffic <file> [same sizing flags]
//	rnuma-trace cut    <file> [-o out.trace] [-cpus 1,3] [-from N] [-to M]
//	rnuma-trace cat    <a> <b> ... [-o out.trace]
//	rnuma-trace retarget <file> [-o out.trace] [-nodes N] [-cpus N] [-pages P]
//	                  [-policy identity|roundrobin|modulo] [-cpu-fold modulo|interleave]
//	                  [-map file.json] [-name S]
//	rnuma-trace retarget-geometry <file> [-o out.trace] [-block N] [-page N] [-name S]
//	rnuma-trace dilate <file> [-o out.trace] [-factor N/D] [-clamp N] [-name S]
//	rnuma-trace diff   <a> <b>
//	rnuma-trace diffstats <a> <b> [-protocol ccnuma|scoma|rnuma] [-bc B] [-pc P] [-T N] [-soft] [-ideal] [-v]
//	rnuma-trace info   <file>
//	rnuma-trace replay <file> [-protocol ccnuma|scoma|rnuma] [-bc B] [-pc P] [-T N] [-soft] [-ideal]
//	                  [-scale S] [-seed N] [-nodes N] [-cpus N]
//	                  [-window N] [-timeline out.json] [-events out.json] [-cpuprofile f] [-memprofile f]
//	rnuma-trace snapshot <file> -refs N [-o snap.rnss] [-window N] [-protocol P] [-bc B] [-pc P] [-T N] [-soft] [-ideal]
//	rnuma-trace resume <file> -snap snap.rnss [-T N] [-timeline out.json] [-events out.json]
//
// snapshot replays a trace up to a reference count, then serializes the
// paused machine's complete state to a checkpoint file; resume restores
// a checkpoint, seeks the trace's streams past the consumed prefix
// (without re-decoding it), and finishes the run — optionally under a
// different R-NUMA relocation threshold, which is sound whenever the
// checkpoint predates the first threshold crossing (the fork primitive
// behind cheap threshold sweeps).
//
// retarget remaps a trace onto a different machine shape (nodes, CPUs,
// pages) under a page-remapping policy, so one capture becomes a scaling
// sweep; retarget-geometry re-splits every address onto a different
// block/page geometry for granularity studies; dilate rescales compute
// gaps by a rational factor to model faster or slower processors; diff
// compares two traces record by record and reports the first diverging
// CPU/record index plus a per-CPU summary (exit status 1 when they
// differ); diffstats replays two traces under the same system
// configuration and prints the per-counter stats delta table (exit
// status 1 when the runs differ) — the one-command regression check. All
// transforms stream, so they compose with cut/cat piping.
//
// record captures a built-in application's reference streams; gen does
// the same for a declarative JSON workload spec (see internal/workloads;
// a catalog application's spec is internal/workloads/catalog/<app>.json),
// or — with -traffic — for a multi-tenant traffic scenario (see
// internal/traffic), whose clients' streams it interleaves by arrival
// time into one ordinary trace. gen reads its file ("-" = stdin) and
// builds it through the harness's one loader, as replay does. Both write
// to stdout with -o - (the default is <name>.trace), so traces pipe
// straight into `rnuma-trace replay -`. cut slices a trace by per-CPU
// record range and/or CPU subset, preserving the recorded machine shape
// (dropped CPUs become empty streams, so cuts replay on the recorded
// machine); cat concatenates traces of identical machine shape — cutting
// a trace into range slices and catting them back recomposes it exactly.
// Every subcommand that writes a trace writes the tracefile Writer's one
// encoding (version 2); every one that reads accepts version 1 too. info
// prints a trace's header and per-CPU record counts.
//
// replay runs one input through rnuma-serve's job executor
// (serve.Execute) and prints the run's statistics and its normalized
// execution time, the same report the daemon serves for a replay job.
// The input's kind is sniffed from its content: a trace replays on the
// machine of its recorded shape; a declarative spec or a traffic
// scenario is built for the -nodes/-cpus shape at -scale/-seed. A
// scenario keeps the per-client attribution an encoded trace cannot
// carry, so its report gains a per-client counter table and per-client
// timeline sparklines.
//
// Exit status: 0 on success, 1 on errors (and on diff/diffstats
// difference), 2 on usage errors.
//
// replay's telemetry flags drive the sampling probe: -window N closes an
// interval every N references and prints the timeline report; -timeline
// and -events export the interval series and the relocation event log as
// JSON (either defaults the window to 64Ki when -window is omitted).
// snapshot -window checkpoints a probed replay — the checkpoint carries
// the probe's cursor, so resume continues the interval series
// bit-identically, even from a mid-window pause. diffstats -tol P loosens
// the exact-match gate into a band: timing counters (cycle totals) may
// drift within ±P percent (warned, exit 0), while any structural counter
// or refetch-distribution change still exits 1. -cpuprofile/-memprofile
// write pprof profiles covering the replay itself.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"rnuma/internal/addr"
	"rnuma/internal/config"
	"rnuma/internal/harness"
	"rnuma/internal/machine"
	"rnuma/internal/profiling"
	"rnuma/internal/report"
	"rnuma/internal/serve"
	"rnuma/internal/stats"
	"rnuma/internal/telemetry"
	"rnuma/internal/tracefile"
	"rnuma/internal/tracefile/snapfile"
	"rnuma/internal/workloads"
)

// cli carries the process's streams so the whole command is drivable
// in-process by tests: run() is main() minus os.Exit.
type cli struct {
	stdin          io.Reader
	stdout, stderr io.Writer
}

// errDiffer marks a successful comparison whose inputs differ: diff and
// diffstats report through their table output and exit 1 without an
// error message.
var errDiffer = errors.New("inputs differ")

// errUsage marks a bad invocation (exit 2); the message, if any, has
// already been printed.
var errUsage = errors.New("usage")

func main() {
	os.Exit(run(cli{stdin: os.Stdin, stdout: os.Stdout, stderr: os.Stderr}, os.Args[1:]))
}

// run dispatches one invocation and returns the process exit code.
func run(c cli, args []string) int {
	if len(args) < 1 {
		c.usage()
		return 2
	}
	var err error
	switch args[0] {
	case "record":
		err = c.cmdRecord(args[1:])
	case "gen":
		err = c.cmdGen(args[1:])
	case "cut":
		err = c.cmdCut(args[1:])
	case "cat":
		err = c.cmdCat(args[1:])
	case "retarget":
		err = c.cmdRetarget(args[1:])
	case "retarget-geometry":
		err = c.cmdRetargetGeometry(args[1:])
	case "dilate":
		err = c.cmdDilate(args[1:])
	case "diff":
		err = c.cmdDiff(args[1:])
	case "diffstats":
		err = c.cmdDiffStats(args[1:])
	case "info":
		err = c.cmdInfo(args[1:])
	case "replay":
		err = c.cmdReplay(args[1:])
	case "snapshot":
		err = c.cmdSnapshot(args[1:])
	case "resume":
		err = c.cmdResume(args[1:])
	case "-h", "-help", "--help", "help":
		c.usage()
		return 0
	default:
		fmt.Fprintf(c.stderr, "rnuma-trace: unknown subcommand %q\n\n", args[0])
		c.usage()
		return 2
	}
	switch {
	case err == nil:
		return 0
	case errors.Is(err, errDiffer):
		return 1
	case errors.Is(err, errUsage):
		return 2
	default:
		fmt.Fprintf(c.stderr, "rnuma-trace: %v\n", err)
		return 1
	}
}

func (c cli) usage() {
	fmt.Fprintf(c.stderr, `rnuma-trace — capture, inspect, and replay reference traces

subcommands:
  record -app <name>  [-o file] [-scale S] [-seed N] [-nodes N] [-cpus N]
      capture a built-in application's streams (apps: %s)
  gen    -spec <file> [-o file] [-scale S] [-seed N] [-nodes N] [-cpus N]
      build a declarative spec workload ("-" = stdin) and capture its streams
  gen    -traffic <file> [same sizing flags]
      compile a multi-tenant traffic scenario ("-" = stdin) into one merged trace
  cut    <file> [-o file] [-cpus 1,3] [-from N] [-to M]
      slice a trace: keep a per-CPU record range and/or a CPU subset
  cat    <a> <b> ... [-o file]
      concatenate traces of identical machine shape
  retarget <file> [-o file] [-nodes N] [-cpus N] [-pages P] [-policy identity|roundrobin|modulo]
           [-cpu-fold modulo|interleave] [-map file.json] [-name S]
      remap a trace onto a different machine shape (0/omitted keeps the source value)
  retarget-geometry <file> [-o file] [-block N] [-page N] [-name S]
      re-split every address onto a different block/page geometry (bytes; 0 keeps)
  dilate <file> [-o file] [-factor N/D] [-clamp N] [-name S]
      scale every compute gap by a rational factor (model faster/slower CPUs)
  diff   <a> <b>
      compare two traces record by record; exits 1 when they differ
  diffstats <a> <b> [-protocol P] [-bc B] [-pc P] [-T N] [-soft] [-ideal] [-v] [-tol P]
      replay both traces under one system and print the per-counter delta
      table; exits 1 when the runs differ (-tol P tolerates timing-counter
      drift within ±P percent, structural changes still fail)
  info   <file>
      print a trace's header, format version, home histogram, and per-CPU record counts
  replay <file> [-protocol P] [-bc B] [-pc P] [-T N] [-soft] [-ideal] [-scale S] [-seed N] [-nodes N] [-cpus N]
         [-window N] [-timeline f.json] [-events f.json] [-cpuprofile f] [-memprofile f]
      run a trace through the simulated machine of its recorded shape, or
      a spec or traffic scenario (sniffed) built for -nodes x -cpus at
      -scale/-seed (a scenario adds per-client counters and sparklines);
      -window samples telemetry every N refs, -timeline/-events export it
  snapshot <file> -refs N [-o snap.rnss] [-window N] [-protocol P] [-bc B] [-pc P] [-T N] [-soft] [-ideal]
      replay a trace up to N references and checkpoint the paused machine
      (-window checkpoints a telemetry probe along with it)
  resume <file> -snap snap.rnss [-T N] [-timeline f.json] [-events f.json]
      restore a checkpoint and finish the run (optionally at a new threshold)
`, strings.Join(workloads.Names(), ", "))
}

// flagSet builds a subcommand flag set that reports parse errors through
// the cli's stderr and returns them (never os.Exit).
func (c cli) flagSet(name string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(c.stderr)
	return fs
}

// sizingFlags are the workload-shape flags shared by record and gen.
func sizingFlags(fs *flag.FlagSet) (scale *float64, seed *int64, nodes, cpus *int, out *string) {
	scale = fs.Float64("scale", 1.0, "workload scale (iteration multiplier)")
	seed = fs.Int64("seed", 0, "workload RNG seed (0 = built-in fixed seeds)")
	nodes = fs.Int("nodes", 8, "SMP nodes")
	cpus = fs.Int("cpus", 4, "CPUs per node")
	out = fs.String("o", "", `output file ("-" = stdout; default <name>.trace)`)
	return
}

// systemFlags are the machine-configuration flags shared by replay and
// diffstats; resolve them into a config.System after fs.Parse.
func systemFlags(fs *flag.FlagSet) func() (config.System, error) {
	protocol := fs.String("protocol", "rnuma", "protocol: ccnuma, scoma, rnuma")
	bc := fs.Int("bc", -2, "block cache bytes (-1 = infinite, default per protocol)")
	pc := fs.Int("pc", -2, "page cache bytes (default per protocol)")
	thr := fs.Int("T", 64, "R-NUMA relocation threshold")
	soft := fs.Bool("soft", false, "use SOFT costs (10-µs traps, 5-µs software shootdowns)")
	ideal := fs.Bool("ideal", false, "replay on the infinite-block-cache baseline")
	return func() (config.System, error) {
		sys, err := config.SystemByName(*protocol)
		if err != nil {
			return sys, err
		}
		if *ideal {
			sys = config.Ideal()
		}
		if *bc != -2 {
			sys.BlockCacheBytes = *bc
		}
		if *pc != -2 {
			sys.PageCacheBytes = *pc
		}
		sys.Threshold = *thr
		if *soft {
			sys.Costs = config.SoftCosts()
		}
		return sys, nil
	}
}

// telemetryFlags are replay's sampling-probe flags; resolve the config
// after fs.Parse. Requesting a JSON export without an explicit window
// defaults the window instead of silently exporting an empty capture.
func telemetryFlags(fs *flag.FlagSet) (cfg func() telemetry.Config, timelineOut, eventsOut *string) {
	window := fs.Int64("window", 0,
		fmt.Sprintf("telemetry window in references (0 = off; %d when -timeline/-events is given)", telemetry.DefaultWindow))
	timelineOut = fs.String("timeline", "", `write the telemetry timeline (intervals + events) as JSON ("-" = stdout)`)
	eventsOut = fs.String("events", "", `write the relocation event log as JSON ("-" = stdout)`)
	cfg = func() telemetry.Config {
		w := *window
		if w == 0 && (*timelineOut != "" || *eventsOut != "") {
			w = telemetry.DefaultWindow
		}
		return telemetry.Config{Window: w}
	}
	return
}

// exportTimeline writes the telemetry JSON artifacts: the full timeline
// (intervals + events) to timelinePath, the event log alone to
// eventsPath. Empty paths skip; "-" writes to stdout.
func (c cli) exportTimeline(timelinePath, eventsPath string, tl *telemetry.Timeline) error {
	if timelinePath == "" && eventsPath == "" {
		return nil
	}
	if tl == nil {
		return fmt.Errorf("no telemetry captured (probe disabled)")
	}
	if err := c.writeJSON(timelinePath, tl); err != nil {
		return err
	}
	if eventsPath == "" {
		return nil
	}
	events := tl.Events
	if events == nil {
		events = []telemetry.Event{} // a run with no crossings exports [], not null
	}
	return c.writeJSON(eventsPath, struct {
		Window int64             `json:"window"`
		Nodes  int               `json:"nodes"`
		Events []telemetry.Event `json:"events"`
	}{tl.Window, tl.Nodes, events})
}

// writeJSON marshals v (indented) to path; "" skips, "-" means stdout.
func (c cli) writeJSON(path string, v any) error {
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = c.stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func (c cli) cmdRecord(args []string) error {
	fs := c.flagSet("record")
	appName := fs.String("app", "", "application to record: "+strings.Join(workloads.Names(), ", "))
	scale, seed, nodes, cpus, out := sizingFlags(fs)
	if err := fs.Parse(args); err != nil {
		return errUsage
	}
	app, ok := workloads.ByName(*appName)
	if !ok {
		return fmt.Errorf("unknown application %q", *appName)
	}
	cfg := workloads.Config{Nodes: *nodes, CPUsPerNode: *cpus, Geometry: addr.Default, Scale: *scale, Seed: *seed}
	if err := cfg.Validate(); err != nil {
		return err
	}
	return c.capture(app.Build(cfg), cfg, *out)
}

// cmdGen builds a spec or a traffic scenario through the harness's one
// loader, as replay does, and captures the workload's streams.
func (c cli) cmdGen(args []string) error {
	fs := c.flagSet("gen")
	specPath := fs.String("spec", "", `workload spec file ("-" = stdin)`)
	trafficPath := fs.String("traffic", "", `traffic scenario file ("-" = stdin): compile its multi-tenant mix instead of a single spec`)
	scale, seed, nodes, cpus, out := sizingFlags(fs)
	if err := fs.Parse(args); err != nil {
		return errUsage
	}
	if (*specPath == "") == (*trafficPath == "") {
		return fmt.Errorf("gen needs exactly one of -spec <file> or -traffic <file>")
	}
	kind, path := harness.KindSpec, *specPath
	if *trafficPath != "" {
		kind, path = harness.KindTraffic, *trafficPath
	}
	data, name, baseDir, err := c.readInput(path, "")
	if err != nil {
		return err
	}
	h := harness.New(*scale)
	h.Seed = *seed
	src, err := h.Load(kind, data, "", baseDir, config.System{Nodes: *nodes, CPUsPerNode: *cpus, Geometry: addr.Default})
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	cfg := workloads.Config{Nodes: *nodes, CPUsPerNode: *cpus, Geometry: addr.Default, Scale: *scale, Seed: *seed}
	w, err := src.Load(cfg)
	if err != nil {
		return err
	}
	if a := w.Attribution; a != nil {
		fmt.Fprintf(c.stderr, "traffic %s: %d clients (%s)\n", w.Name, len(a.Clients), strings.Join(a.Clients, ", "))
	}
	return c.capture(w, cfg, *out)
}

// capture drains the workload into a trace file and reports the encoding
// stats on stderr (stdout may be the trace itself).
func (c cli) capture(w *workloads.Workload, cfg workloads.Config, out string) error {
	if out == "" {
		out = w.Name + ".trace"
	}
	dst, where, cleanup, err := c.openOut(out)
	if err != nil {
		return err
	}
	refs, bytes, err := tracefile.WriteWorkload(dst, w, cfg)
	// A close-time write failure (ENOSPC, EIO) means the trace on disk is
	// truncated; it must not report as a successful recording.
	if cerr := cleanup(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(c.stderr, "recorded %s: %d refs, %d pages, %d bytes to %s (%.2f bytes/ref)\n",
		w.Name, refs, w.SharedPages, bytes, where, float64(bytes)/float64(refs))
	return nil
}

// openOut resolves an output argument: a path, or "-" for stdout.
func (c cli) openOut(out string) (io.Writer, string, func() error, error) {
	if out == "-" {
		return c.stdout, "stdout", func() error { return nil }, nil
	}
	f, err := os.Create(out)
	if err != nil {
		return nil, "", nil, err
	}
	return f, out, f.Close, nil
}

func (c cli) cmdCut(args []string) error {
	fs := c.flagSet("cut")
	tracePath := fs.String("trace", "", `trace file ("-" = stdin; also accepted positionally)`)
	out := fs.String("o", "-", `output file ("-" = stdout)`)
	cpuList := fs.String("cpus", "", "comma-separated source CPU indices to keep (default all)")
	from := fs.Int64("from", 0, "first per-CPU record index to keep")
	to := fs.Int64("to", 0, "one past the last record index to keep (0 = end)")
	target, err := c.parseWithTarget(fs, args)
	if err != nil {
		return err
	}

	sel := tracefile.CutSpec{From: *from, To: *to}
	if *cpuList != "" {
		for _, s := range strings.Split(*cpuList, ",") {
			cpu, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				return fmt.Errorf("bad -cpus entry %q", s)
			}
			sel.CPUs = append(sel.CPUs, cpu)
		}
	}
	r, name, err := c.openTrace(target, *tracePath)
	if err != nil {
		return err
	}
	defer r.Close()
	dst, where, cleanup, err := c.openOut(*out)
	if err != nil {
		return err
	}
	refs, err := tracefile.Cut(dst, r, sel)
	if cerr := cleanup(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(c.stderr, "cut %s: kept %d refs to %s\n", name, refs, where)
	return nil
}

func (c cli) cmdCat(args []string) error {
	fs := c.flagSet("cat")
	out := fs.String("o", "-", `output file ("-" = stdout)`)
	// Accept input files on either side of the flags (cat a b -o out);
	// "-" names stdin, like every other subcommand.
	inputs, err := c.parsePositionals(fs, args)
	if err != nil {
		return err
	}
	if len(inputs) == 0 {
		return fmt.Errorf("cat needs at least one input trace")
	}
	srcs := make([]io.Reader, 0, len(inputs))
	stdinUsed := false
	for _, path := range inputs {
		if path == "-" {
			if stdinUsed {
				return fmt.Errorf("stdin (\"-\") can appear only once")
			}
			stdinUsed = true
			srcs = append(srcs, c.stdin)
			continue
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		srcs = append(srcs, f)
	}
	dst, where, cleanup, err := c.openOut(*out)
	if err != nil {
		return err
	}
	refs, err := tracefile.Cat(dst, srcs)
	if cerr := cleanup(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(c.stderr, "cat %s: %d refs to %s\n", strings.Join(inputs, "+"), refs, where)
	return nil
}

func (c cli) cmdRetarget(args []string) error {
	fs := c.flagSet("retarget")
	tracePath := fs.String("trace", "", `trace file ("-" = stdin; also accepted positionally)`)
	out := fs.String("o", "-", `output file ("-" = stdout)`)
	nodes := fs.Int("nodes", 0, "target node count (0 = keep)")
	cpus := fs.Int("cpus", 0, "target total CPU count (0 = keep)")
	pages := fs.Int("pages", 0, "target shared page count (0 = keep)")
	policyName := fs.String("policy", "identity", "page remap policy: identity, roundrobin, modulo")
	foldName := fs.String("cpu-fold", "modulo", "cpu fold policy when shrinking: modulo, interleave")
	mapPath := fs.String("map", "", "explicit remap file (JSON; overrides -policy)")
	name := fs.String("name", "", "rename the retargeted workload")
	target, err := c.parseWithTarget(fs, args)
	if err != nil {
		return err
	}

	var policy tracefile.RemapPolicy
	if *mapPath != "" {
		data, rerr := os.ReadFile(*mapPath)
		if rerr != nil {
			return rerr
		}
		if policy, err = tracefile.MapFilePolicy(data); err != nil {
			return err
		}
	} else if policy, err = tracefile.PolicyByName(*policyName); err != nil {
		return err
	}
	fold, err := tracefile.CPUFoldByName(*foldName)
	if err != nil {
		return err
	}
	spec := tracefile.RetargetSpec{Nodes: *nodes, CPUs: *cpus, Pages: *pages, Policy: policy, CPUFold: fold, Name: *name}

	r, srcName, err := c.openTrace(target, *tracePath)
	if err != nil {
		return err
	}
	defer r.Close()
	dst, where, cleanup, err := c.openOut(*out)
	if err != nil {
		return err
	}
	refs, err := tracefile.Retarget(dst, r, spec)
	if cerr := cleanup(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(c.stderr, "retarget %s (%s): %d refs to %s\n", srcName, policy.Name(), refs, where)
	return nil
}

func (c cli) cmdRetargetGeometry(args []string) error {
	fs := c.flagSet("retarget-geometry")
	tracePath := fs.String("trace", "", `trace file ("-" = stdin; also accepted positionally)`)
	out := fs.String("o", "-", `output file ("-" = stdout)`)
	block := fs.Int("block", 0, "target block size in bytes (0 = keep)")
	page := fs.Int("page", 0, "target page size in bytes (0 = keep)")
	name := fs.String("name", "", "rename the retargeted workload")
	target, err := c.parseWithTarget(fs, args)
	if err != nil {
		return err
	}
	if *block == 0 && *page == 0 {
		return fmt.Errorf("retarget-geometry needs -block and/or -page")
	}

	r, srcName, err := c.openTrace(target, *tracePath)
	if err != nil {
		return err
	}
	defer r.Close()
	dst, where, cleanup, err := c.openOut(*out)
	if err != nil {
		return err
	}
	refs, err := tracefile.RetargetGeometry(dst, r, tracefile.GeometrySpec{
		BlockBytes: *block, PageBytes: *page, Name: *name,
	})
	if cerr := cleanup(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(c.stderr, "retarget-geometry %s: %d refs to %s\n", srcName, refs, where)
	return nil
}

func (c cli) cmdDilate(args []string) error {
	fs := c.flagSet("dilate")
	tracePath := fs.String("trace", "", `trace file ("-" = stdin; also accepted positionally)`)
	out := fs.String("o", "-", `output file ("-" = stdout)`)
	factor := fs.String("factor", "1", "gap scale factor, N or N/D (e.g. 2, 1/2, 3/2)")
	clamp := fs.Int("clamp", 0, "cap scaled gaps at this value (0 = format max 65535)")
	name := fs.String("name", "", "rename the dilated workload")
	target, err := c.parseWithTarget(fs, args)
	if err != nil {
		return err
	}

	num, den, err := tracefile.ParseRatio(*factor)
	if err != nil {
		return err
	}
	r, srcName, err := c.openTrace(target, *tracePath)
	if err != nil {
		return err
	}
	defer r.Close()
	dst, where, cleanup, err := c.openOut(*out)
	if err != nil {
		return err
	}
	refs, err := tracefile.Dilate(dst, r, tracefile.DilateSpec{Num: num, Den: den, Clamp: *clamp, Name: *name})
	if cerr := cleanup(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(c.stderr, "dilate %s x%d/%d: %d refs to %s\n", srcName, num, den, refs, where)
	return nil
}

// openPair resolves a two-trace subcommand's inputs (diff, diffstats).
func (c cli) openPair(fs *flag.FlagSet, args []string) (a, b io.ReadCloser, paths []string, err error) {
	paths, err = c.parsePositionals(fs, args)
	if err != nil {
		return nil, nil, nil, err
	}
	if len(paths) != 2 {
		return nil, nil, nil, fmt.Errorf("%s needs exactly two trace files", fs.Name())
	}
	if paths[0] == "-" && paths[1] == "-" {
		return nil, nil, nil, fmt.Errorf("stdin (\"-\") can appear only once")
	}
	if a, _, err = c.openTrace(paths[0], ""); err != nil {
		return nil, nil, nil, err
	}
	if b, _, err = c.openTrace(paths[1], ""); err != nil {
		a.Close()
		return nil, nil, nil, err
	}
	return a, b, paths, nil
}

func (c cli) cmdDiff(args []string) error {
	fs := c.flagSet("diff")
	verbose := fs.Bool("v", false, "list every CPU in the summary, not just differing ones")
	a, b, paths, err := c.openPair(fs, args)
	if err != nil {
		return err
	}
	defer a.Close()
	defer b.Close()

	res, err := tracefile.Diff(a, b)
	if err != nil {
		return err
	}
	fmt.Fprintf(c.stdout, "diff %s %s\n", paths[0], paths[1])
	if res.ShapeMismatch != nil {
		fmt.Fprintf(c.stdout, "  shape mismatch: %v\n", res.ShapeMismatch)
		return errDiffer
	}
	if res.Identical {
		fmt.Fprintf(c.stdout, "  identical: %d records per side\n", res.ARecords)
		return nil
	}
	fmt.Fprintf(c.stdout, "  first divergence: %s\n", res.First)
	fmt.Fprintf(c.stdout, "  per-cpu summary (%d vs %d records total):\n", res.ARecords, res.BRecords)
	for _, s := range res.PerCPU {
		if s.FirstIndex < 0 && !*verbose {
			continue
		}
		status := "identical"
		if s.FirstIndex >= 0 {
			status = fmt.Sprintf("%d differ, first at %d", s.Differing, s.FirstIndex)
			if s.ARecords != s.BRecords {
				status += fmt.Sprintf(", lengths %d vs %d", s.ARecords, s.BRecords)
			}
		}
		fmt.Fprintf(c.stdout, "    cpu %3d: %s\n", s.CPU, status)
	}
	return errDiffer
}

// cmdDiffStats replays two traces under the same system configuration
// and prints the per-counter delta table — the "is this a regression?"
// command. The traces need not share a machine shape (each replays on
// its own recorded shape); what is compared is the resulting runs.
func (c cli) cmdDiffStats(args []string) error {
	fs := c.flagSet("diffstats")
	system := systemFlags(fs)
	verbose := fs.Bool("v", false, "list unchanged counters too")
	tol := fs.Float64("tol", 0, "tolerance band in percent on timing counters (0 = require exact match)")
	a, b, paths, err := c.openPair(fs, args)
	if err != nil {
		return err
	}
	defer a.Close()
	defer b.Close()
	// A negative band is always a mistake (it can never pass), and before
	// this guard it silently meant "exact match" — reject it loudly.
	if *tol < 0 {
		fmt.Fprintf(c.stderr, "rnuma-trace: -tol must be >= 0 percent, got %v\n", *tol)
		return errUsage
	}
	sys, err := system()
	if err != nil {
		return err
	}
	resA, err := harness.Replay(a, sys)
	if err != nil {
		return fmt.Errorf("%s: %w", paths[0], err)
	}
	resB, err := harness.Replay(b, sys)
	if err != nil {
		return fmt.Errorf("%s: %w", paths[1], err)
	}
	d := stats.Diff(resA.Run, resB.Run)
	fmt.Fprintf(c.stdout, "diffstats %s %s (%s)\n\n", paths[0], paths[1], sys.Name)
	report.DeltaTable(c.stdout, paths[0], paths[1], d, *verbose)
	if *tol > 0 {
		res := d.Tolerance(*tol)
		fmt.Fprintln(c.stdout)
		report.ToleranceSummary(c.stdout, &res)
		if !res.OK() {
			return errDiffer
		}
		return nil
	}
	if !d.Identical() {
		return errDiffer
	}
	return nil
}

// parsePositionals parses a subcommand's flags while lifting positional
// arguments that may appear on either side of (or between) the flags —
// the standard flag package stops at the first positional and would
// silently drop everything after it, including flags like -o. "-"
// (stdin/stdout) counts as a positional.
func (c cli) parsePositionals(fs *flag.FlagSet, args []string) ([]string, error) {
	var positionals []string
	for {
		for len(args) > 0 && (args[0] == "-" || !strings.HasPrefix(args[0], "-")) {
			positionals = append(positionals, args[0])
			args = args[1:]
		}
		if len(args) == 0 {
			return positionals, nil
		}
		if err := fs.Parse(args); err != nil {
			return nil, errUsage
		}
		args = fs.Args()
	}
}

// parseWithTarget is parsePositionals for subcommands that take exactly
// one trace argument (`replay file -protocol scoma` and `replay
// -protocol scoma file` both work); extra positionals are an error.
func (c cli) parseWithTarget(fs *flag.FlagSet, args []string) (string, error) {
	positionals, err := c.parsePositionals(fs, args)
	if err != nil {
		return "", err
	}
	if len(positionals) > 1 {
		fmt.Fprintf(c.stderr, "rnuma-trace: unexpected extra arguments %v\n", positionals[1:])
		return "", errUsage
	}
	if len(positionals) == 0 {
		return "", nil
	}
	return positionals[0], nil
}

// openTrace resolves a trace argument: a path or "-" for stdin. The
// subcommands that take one input also accept it as -trace.
func (c cli) openTrace(positional, tracePath string) (io.ReadCloser, string, error) {
	path := tracePath
	if path == "" {
		path = positional
	}
	if path == "" {
		return nil, "", fmt.Errorf("no trace file given")
	}
	if path == "-" {
		return io.NopCloser(c.stdin), "stdin", nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, "", err
	}
	return f, path, nil
}

// readInput reads a whole input, resolved as openTrace resolves it, and
// returns its bytes, its name and the directory a scenario's relative
// phase paths resolve against ("" for stdin: the working directory).
func (c cli) readInput(positional, path string) (data []byte, name, baseDir string, err error) {
	r, name, err := c.openTrace(positional, path)
	if err != nil {
		return nil, "", "", err
	}
	defer r.Close()
	if data, err = io.ReadAll(r); err != nil {
		return nil, "", "", err
	}
	if name != "stdin" {
		baseDir = filepath.Dir(name)
	}
	return data, name, baseDir, nil
}

func (c cli) cmdInfo(args []string) error {
	fs := c.flagSet("info")
	tracePath := fs.String("trace", "", `trace file ("-" = stdin; also accepted positionally)`)
	target, err := c.parseWithTarget(fs, args)
	if err != nil {
		return err
	}
	r, name, err := c.openTrace(target, *tracePath)
	if err != nil {
		return err
	}
	defer r.Close()
	d, err := tracefile.NewReader(r)
	if err != nil {
		return err
	}
	h := d.Header()
	fmt.Fprintf(c.stdout, "trace: %s\n", name)
	fmt.Fprintf(c.stdout, "  workload:     %s\n", h.Name)
	fmt.Fprintf(c.stdout, "  format:       v%d\n", d.Version())
	fmt.Fprintf(c.stdout, "  geometry:     %s\n", h.Geometry)
	fmt.Fprintf(c.stdout, "  machine:      %d nodes, %d CPUs\n", h.Nodes, h.CPUs)
	fmt.Fprintf(c.stdout, "  shared pages: %d (%d KB)\n", h.SharedPages, h.SharedPages*h.Geometry.PageBytes()/1024)
	// The home histogram is the first thing to sanity-check after a
	// retarget: a round-robin re-homing shows even node counts, a botched
	// one piles pages onto the low nodes.
	perNode := make([]int, h.Nodes)
	for _, n := range h.Homes {
		perNode[n]++
	}
	fmt.Fprintf(c.stdout, "  home map:\n")
	for n, cnt := range perNode {
		pct := 0.0
		if h.SharedPages > 0 {
			pct = 100 * float64(cnt) / float64(h.SharedPages)
		}
		fmt.Fprintf(c.stdout, "    node %2d: %6d pages (%5.1f%%)\n", n, cnt, pct)
	}
	counts, err := d.Drain()
	if err != nil {
		return err
	}
	var total int64
	for _, cnt := range counts {
		total += cnt
	}
	fmt.Fprintf(c.stdout, "  references:   %d\n", total)
	for cpu, cnt := range counts {
		fmt.Fprintf(c.stdout, "    cpu %2d: %d\n", cpu, cnt)
	}
	return nil
}

// cmdSnapshot replays a trace until a reference count and writes the
// paused machine's state as a checkpoint file.
func (c cli) cmdSnapshot(args []string) error {
	fs := c.flagSet("snapshot")
	tracePath := fs.String("trace", "", `trace file ("-" = stdin; also accepted positionally)`)
	out := fs.String("o", "", "checkpoint output file (default <trace>.rnss)")
	refs := fs.Int64("refs", 0, "pause after this many references (required)")
	window := fs.Int64("window", 0, "telemetry window in references (0 = off); the checkpoint carries the probe cursor")
	system := systemFlags(fs)
	target, err := c.parseWithTarget(fs, args)
	if err != nil {
		return err
	}
	if *refs <= 0 {
		return fmt.Errorf("snapshot needs -refs N (> 0)")
	}
	r, name, err := c.openTrace(target, *tracePath)
	if err != nil {
		return err
	}
	defer r.Close()
	sys, err := system()
	if err != nil {
		return err
	}
	d, err := tracefile.NewReader(r)
	if err != nil {
		return err
	}
	m, sys, err := harness.NewTraceMachine(d.Header(), sys,
		machine.WithTelemetry(telemetry.Config{Window: *window}))
	if err != nil {
		return err
	}
	if err := m.Start(d.Streams()); err != nil {
		return err
	}
	done, err := m.RunUntilRefs(*refs)
	if err != nil {
		return err
	}
	if err := d.Err(); err != nil {
		return err
	}
	snap, err := m.Snapshot()
	if err != nil {
		return err
	}
	dest := *out
	if dest == "" {
		if name == "stdin" {
			return fmt.Errorf("snapshot of a stdin trace needs -o <file>")
		}
		dest = name + ".rnss"
	}
	if err := snapfile.WriteFile(dest, snap); err != nil {
		return err
	}
	state := "paused"
	if done {
		state = "complete"
	}
	fmt.Fprintf(c.stderr, "snapshot %s (%s): %s at %d refs to %s\n", name, sys.Name, state, snap.Run.Refs, dest)
	return nil
}

// cmdResume restores a checkpoint, seeks the trace streams past the
// consumed prefix, and finishes the run.
func (c cli) cmdResume(args []string) error {
	fs := c.flagSet("resume")
	tracePath := fs.String("trace", "", `trace file ("-" = stdin; also accepted positionally)`)
	snapPath := fs.String("snap", "", "checkpoint file written by snapshot (required)")
	thr := fs.Int("T", 0, "override the R-NUMA relocation threshold (0 = keep the checkpoint's)")
	timelineOut := fs.String("timeline", "", `write the continued telemetry timeline as JSON ("-" = stdout)`)
	eventsOut := fs.String("events", "", `write the relocation event log as JSON ("-" = stdout)`)
	target, err := c.parseWithTarget(fs, args)
	if err != nil {
		return err
	}
	if *snapPath == "" {
		return fmt.Errorf("resume needs -snap <file>")
	}
	snap, err := snapfile.ReadFile(*snapPath)
	if err != nil {
		return err
	}
	sys := snap.Sys
	if *thr > 0 {
		sys.Threshold = *thr
	}
	r, name, err := c.openTrace(target, *tracePath)
	if err != nil {
		return err
	}
	defer r.Close()
	d, err := tracefile.NewReader(r)
	if err != nil {
		return err
	}
	// A probed checkpoint must resume on a probed machine (and vice
	// versa): reconstruct the telemetry configuration from the cursor the
	// checkpoint carries, so the continued series picks up mid-window.
	var tcfg telemetry.Config
	if snap.Probe != nil {
		tcfg.Window = snap.Probe.Window
	}
	m, sys, err := harness.NewTraceMachine(d.Header(), sys, machine.WithTelemetry(tcfg))
	if err != nil {
		return err
	}
	if err := m.Restore(snap); err != nil {
		return err
	}
	if err := m.ResumeWith(d.Streams()); err != nil {
		return err
	}
	run, err := m.Finish()
	if err != nil {
		return err
	}
	if err := d.Err(); err != nil {
		return err
	}
	fmt.Fprintf(c.stdout, "resume %s from %s (workload %s)\n", name, *snapPath, d.Header().Name)
	report.RunSummary(c.stdout, sys.Name, run)
	if run.Timeline != nil {
		fmt.Fprintln(c.stdout)
		report.Timeline(c.stdout, name, run.Timeline)
	}
	if err := c.exportTimeline(*timelineOut, *eventsOut, run.Timeline); err != nil {
		return err
	}

	// Match replay's output: a file trace re-replays on the ideal
	// machine for the normalization line (stdin can't be read twice).
	if name != "stdin" && sys.BlockCacheBytes != config.InfiniteBlockCache {
		f, _, err := c.openTrace(name, "")
		if err != nil {
			return err
		}
		defer f.Close()
		base, err := harness.Replay(f, config.Ideal())
		if err != nil {
			return err
		}
		if base.Run.ExecCycles > 0 {
			fmt.Fprintf(c.stdout, "  normalized exec time:  %.3f (vs infinite block cache)\n", run.Normalized(base.Run))
		}
	}
	return nil
}

// cmdReplay runs one input through the daemon's job executor: a trace
// replays on its recorded shape, a spec or a traffic scenario (sniffed
// from the content) is built for the -nodes/-cpus shape at
// -scale/-seed.
func (c cli) cmdReplay(args []string) error {
	fs := c.flagSet("replay")
	tracePath := fs.String("trace", "", `input file ("-" = stdin; also accepted positionally)`)
	scale := fs.Float64("scale", 1.0, "workload scale (spec and traffic inputs only)")
	seed := fs.Int64("seed", 0, "workload RNG seed (spec and traffic inputs only)")
	nodes := fs.Int("nodes", 8, "SMP nodes (spec and traffic inputs only)")
	cpus := fs.Int("cpus", 4, "CPUs per node (spec and traffic inputs only)")
	system := systemFlags(fs)
	tcfg, timelineOut, eventsOut := telemetryFlags(fs)
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the replay to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file at exit")
	target, err := c.parseWithTarget(fs, args)
	if err != nil {
		return err
	}
	data, name, baseDir, err := c.readInput(target, *tracePath)
	if err != nil {
		return err
	}
	a, err := serve.NewArtifact("", data, name, baseDir)
	if err != nil {
		return err
	}
	sys, err := system()
	if err != nil {
		return err
	}
	sys.Nodes, sys.CPUsPerNode = *nodes, *cpus
	h := harness.New(*scale)
	h.Seed = *seed
	h.Telemetry = tcfg()

	stop, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	doc, err := serve.Execute(h, serve.Job{Type: "replay", Artifact: a, System: sys, Normalize: true}, c.stdout)
	if perr := stop(); err == nil {
		err = perr
	}
	if err != nil {
		return err
	}
	return c.exportTimeline(*timelineOut, *eventsOut, doc.(report.RunDoc).Run.Timeline)
}
