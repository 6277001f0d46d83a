package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rnuma/internal/addr"
	"rnuma/internal/tracefile"
	"rnuma/internal/tracefile/snapfile"
)

// runCLI drives one in-process invocation of the command, returning the
// exit code and captured stdout/stderr — the end-to-end harness for exit
// codes and stdin/stdout piping.
func runCLI(t *testing.T, stdin []byte, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errBuf bytes.Buffer
	code = run(cli{stdin: bytes.NewReader(stdin), stdout: &out, stderr: &errBuf}, args)
	return code, out.String(), errBuf.String()
}

// record captures a tiny trace to an in-memory buffer via -o -.
func record(t *testing.T, args ...string) []byte {
	t.Helper()
	full := append([]string{"record", "-app", "fft", "-scale", "0.02", "-o", "-"}, args...)
	code, stdout, stderr := runCLI(t, nil, full...)
	if code != 0 {
		t.Fatalf("record exited %d: %s", code, stderr)
	}
	if len(stdout) == 0 {
		t.Fatal("record wrote no trace bytes to stdout")
	}
	return []byte(stdout)
}

func TestUsageExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"no-args", nil, 2},
		{"unknown-subcommand", []string{"bogus"}, 2},
		{"help", []string{"-h"}, 0},
		{"bad-flag", []string{"info", "-nonsense"}, 2},
		{"record-unknown-app", []string{"record", "-app", "nope", "-o", "-"}, 1},
		{"record-phaseshift", []string{"record", "-app", "phaseshift", "-o", "-"}, 1},
		{"info-no-file", []string{"info"}, 1},
		{"replay-extra-positionals", []string{"replay", "a.trace", "b.trace"}, 2},
		{"diff-one-file", []string{"diff", "a.trace"}, 1},
		{"diffstats-three-files", []string{"diffstats", "a", "b", "c"}, 1},
		{"diff-double-stdin", []string{"diff", "-", "-"}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, _ := runCLI(t, nil, tc.args...)
			if code != tc.want {
				t.Fatalf("exit %d, want %d", code, tc.want)
			}
		})
	}
}

// TestPipedInfoAndReplay: a trace recorded to stdout pipes into info and
// replay via stdin ("-"), end to end in memory.
func TestPipedInfoAndReplay(t *testing.T) {
	data := record(t)

	code, stdout, stderr := runCLI(t, data, "info", "-")
	if code != 0 {
		t.Fatalf("info exited %d: %s", code, stderr)
	}
	for _, want := range []string{"workload:     fft", "8 nodes, 32 CPUs", "references:"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("info output missing %q:\n%s", want, stdout)
		}
	}

	code, stdout, stderr = runCLI(t, data, "replay", "-", "-protocol", "ccnuma")
	if code != 0 {
		t.Fatalf("replay exited %d: %s", code, stderr)
	}
	// stdin is read once into memory, so even a piped trace replays a
	// second time for the ideal-machine normalization.
	for _, want := range []string{"trace: stdin (workload fft", "run: CC-NUMA", "normalized exec time:"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("replay output missing %q:\n%s", want, stdout)
		}
	}
}

// TestReplaySniffsSpec: replay recognizes a workload spec by its content,
// from a file or stdin, and builds it for the -nodes/-cpus shape.
func TestReplaySniffsSpec(t *testing.T) {
	spec := filepath.Join("..", "..", "examples", "specs", "halo.json")
	code, stdout, stderr := runCLI(t, nil, "replay", spec, "-nodes", "4", "-cpus", "2", "-scale", "0.05")
	if code != 0 {
		t.Fatalf("replay of a spec exited %d: %s", code, stderr)
	}
	for _, want := range []string{"spec: halo-exchange (4 nodes x 2 CPUs)", "run: R-NUMA", "normalized exec time:"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("spec replay output missing %q:\n%s", want, stdout)
		}
	}
	data, err := os.ReadFile(spec)
	if err != nil {
		t.Fatal(err)
	}
	code, piped, stderr := runCLI(t, data, "replay", "-", "-nodes", "4", "-cpus", "2", "-scale", "0.05")
	if code != 0 {
		t.Fatalf("replay of a piped spec exited %d: %s", code, stderr)
	}
	if piped != stdout {
		t.Errorf("piped spec replay differs from the file replay:\n%s\nvs\n%s", piped, stdout)
	}
	if code, _, _ := runCLI(t, []byte(`{"name": "broken"`), "replay", "-"); code != 1 {
		t.Errorf("replay of malformed JSON exited %d, want 1", code)
	}
}

// TestPipedCutCat: cut slices via stdin/stdout and cat recomposes; the
// recomposition diffs identical against the original (exit 0).
func TestPipedCutCat(t *testing.T) {
	data := record(t)
	dir := t.TempDir()
	orig := filepath.Join(dir, "fft.trace")
	if err := os.WriteFile(orig, data, 0o644); err != nil {
		t.Fatal(err)
	}

	code, head, stderr := runCLI(t, data, "cut", "-", "-to", "100", "-o", "-")
	if code != 0 {
		t.Fatalf("cut exited %d: %s", code, stderr)
	}
	code, tail, stderr := runCLI(t, data, "cut", "-", "-from", "100", "-o", "-")
	if code != 0 {
		t.Fatalf("cut exited %d: %s", code, stderr)
	}
	headPath := filepath.Join(dir, "head.trace")
	if err := os.WriteFile(headPath, []byte(head), 0o644); err != nil {
		t.Fatal(err)
	}
	code, recomposed, stderr := runCLI(t, []byte(tail), "cat", headPath, "-", "-o", "-")
	if code != 0 {
		t.Fatalf("cat exited %d: %s", code, stderr)
	}
	recomposedPath := filepath.Join(dir, "recomposed.trace")
	if err := os.WriteFile(recomposedPath, []byte(recomposed), 0o644); err != nil {
		t.Fatal(err)
	}

	code, stdout, _ := runCLI(t, nil, "diff", orig, recomposedPath)
	if code != 0 {
		t.Fatalf("diff of recomposition exited %d:\n%s", code, stdout)
	}
	if !strings.Contains(stdout, "identical") {
		t.Errorf("diff output:\n%s", stdout)
	}
}

// TestDiffExitCodes: differing traces exit 1 with a pinpointed record;
// shape mismatches exit 1 with the mismatch, not an index.
func TestDiffExitCodes(t *testing.T) {
	data := record(t)
	dir := t.TempDir()
	orig := filepath.Join(dir, "a.trace")
	if err := os.WriteFile(orig, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// A dilated trace has the same records at different gaps.
	code, dilated, stderr := runCLI(t, data, "dilate", "-", "-factor", "3", "-o", "-")
	if code != 0 {
		t.Fatalf("dilate exited %d: %s", code, stderr)
	}
	dilPath := filepath.Join(dir, "x3.trace")
	if err := os.WriteFile(dilPath, []byte(dilated), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, _ := runCLI(t, nil, "diff", orig, dilPath)
	if code != 1 {
		t.Fatalf("diff of dilated trace exited %d, want 1:\n%s", code, stdout)
	}
	if !strings.Contains(stdout, "first divergence") {
		t.Errorf("diff output missing divergence:\n%s", stdout)
	}

	// A retargeted shape mismatches.
	code, retargeted, stderr := runCLI(t, data, "retarget", "-", "-nodes", "4", "-policy", "roundrobin", "-o", "-")
	if code != 0 {
		t.Fatalf("retarget exited %d: %s", code, stderr)
	}
	rePath := filepath.Join(dir, "4n.trace")
	if err := os.WriteFile(rePath, []byte(retargeted), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, _ = runCLI(t, nil, "diff", orig, rePath)
	if code != 1 || !strings.Contains(stdout, "shape mismatch") {
		t.Fatalf("shape-mismatch diff exited %d:\n%s", code, stdout)
	}
}

// TestDiffStats: identical replays exit 0; a dilated replay differs on
// timing counters and exits 1 with a delta table.
func TestDiffStats(t *testing.T) {
	data := record(t)
	dir := t.TempDir()
	orig := filepath.Join(dir, "a.trace")
	if err := os.WriteFile(orig, data, 0o644); err != nil {
		t.Fatal(err)
	}

	code, stdout, stderr := runCLI(t, nil, "diffstats", orig, orig)
	if code != 0 {
		t.Fatalf("diffstats of identical traces exited %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "runs are identical") {
		t.Errorf("diffstats output:\n%s", stdout)
	}

	code, dilated, stderr := runCLI(t, data, "dilate", "-", "-factor", "4", "-o", "-")
	if code != 0 {
		t.Fatalf("dilate exited %d: %s", code, stderr)
	}
	dilPath := filepath.Join(dir, "x4.trace")
	if err := os.WriteFile(dilPath, []byte(dilated), 0o644); err != nil {
		t.Fatal(err)
	}
	// The dilated side pipes in through stdin: diffstats composes with
	// the transform pipeline like every other subcommand.
	code, stdout, stderr = runCLI(t, []byte(dilated), "diffstats", orig, "-", "-protocol", "ccnuma")
	if code != 1 {
		t.Fatalf("diffstats of dilated trace exited %d, want 1: %s", code, stderr)
	}
	for _, want := range []string{"ExecCycles", "runs differ"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("diffstats output missing %q:\n%s", want, stdout)
		}
	}

	// Bad trace bytes surface as errors (exit 1), not panics.
	badPath := filepath.Join(dir, "bad.trace")
	if err := os.WriteFile(badPath, []byte("not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := runCLI(t, nil, "diffstats", orig, badPath); code != 1 {
		t.Fatalf("diffstats of corrupt trace exited %d, want 1", code)
	}
}

// TestRetargetGeometryCLI: the happy path re-splits the geometry (info
// confirms it) and the error paths exit 1 with a diagnostic.
func TestRetargetGeometryCLI(t *testing.T) {
	data := record(t)

	code, out, stderr := runCLI(t, data, "retarget-geometry", "-", "-block", "16", "-o", "-")
	if code != 0 {
		t.Fatalf("retarget-geometry exited %d: %s", code, stderr)
	}
	code, stdout, stderr := runCLI(t, []byte(out), "info", "-")
	if code != 0 {
		t.Fatalf("info exited %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "block=16B") {
		t.Errorf("info after geometry retarget:\n%s", stdout)
	}

	cases := []struct {
		name string
		args []string
		want string
	}{
		{"no-dimension", []string{"retarget-geometry", "-", "-o", "-"}, "-block and/or -page"},
		{"not-pow2", []string{"retarget-geometry", "-", "-block", "48", "-o", "-"}, "power of two"},
		{"page-below-block", []string{"retarget-geometry", "-", "-page", "16", "-o", "-"}, "must be in"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := runCLI(t, data, tc.args...)
			if code != 1 {
				t.Fatalf("exit %d, want 1 (%s)", code, stderr)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Errorf("stderr missing %q: %s", tc.want, stderr)
			}
		})
	}
}

// TestRetargetInterleaveFoldCLI: -cpu-fold interleave folds the CPU
// count through the CLI, and unknown fold names are rejected.
func TestRetargetInterleaveFoldCLI(t *testing.T) {
	data := record(t) // 32 CPUs on 8 nodes
	code, out, stderr := runCLI(t, data, "retarget", "-", "-nodes", "4", "-cpus", "16",
		"-policy", "roundrobin", "-cpu-fold", "interleave", "-o", "-")
	if code != 0 {
		t.Fatalf("interleave retarget exited %d: %s", code, stderr)
	}
	code, stdout, _ := runCLI(t, []byte(out), "info", "-")
	if code != 0 || !strings.Contains(stdout, "4 nodes, 16 CPUs") {
		t.Fatalf("info after interleave fold (exit %d):\n%s", code, stdout)
	}

	if code, _, _ := runCLI(t, data, "retarget", "-", "-cpus", "16", "-cpu-fold", "bogus", "-o", "-"); code != 1 {
		t.Fatalf("unknown -cpu-fold exited %d, want 1", code)
	}
	// 32 CPUs onto 12 does not divide evenly: the weighted interleave
	// fold spreads the remainder instead of rejecting the shape.
	code, out, stderr = runCLI(t, data, "retarget", "-", "-nodes", "4", "-cpus", "12", "-cpu-fold", "interleave", "-o", "-")
	if code != 0 {
		t.Fatalf("non-divisible interleave exited %d: %s", code, stderr)
	}
	code, stdout, _ = runCLI(t, []byte(out), "info", "-")
	if code != 0 || !strings.Contains(stdout, "4 nodes, 12 CPUs") {
		t.Fatalf("info after weighted fold (exit %d):\n%s", code, stdout)
	}
}

// TestGenFromStdinSpec: gen builds a spec piped through stdin and the
// result replays.
func TestGenFromStdinSpec(t *testing.T) {
	spec := `{
		"name": "cli-e2e",
		"regions": [{"name": "m", "pages": 16, "placement": "global"}],
		"phases": [{"iters": 2, "steps": [{"op": "sweep", "region": "m"}, {"op": "barrier"}]}]
	}`
	code, out, stderr := runCLI(t, []byte(spec), "gen", "-spec", "-", "-nodes", "2", "-cpus", "2", "-o", "-")
	if code != 0 {
		t.Fatalf("gen exited %d: %s", code, stderr)
	}
	code, stdout, stderr := runCLI(t, []byte(out), "info", "-")
	if code != 0 || !strings.Contains(stdout, "cli-e2e") {
		t.Fatalf("info of generated spec (exit %d): %s\n%s", code, stderr, stdout)
	}
	if code, _, _ := runCLI(t, nil, "gen", "-o", "-"); code != 1 {
		t.Fatal("gen without -spec should exit 1")
	}
}

// TestWrittenTraceDigests pins the bytes the writing subcommands emit at
// the default 8x4 shape: a recorded application, a spec and a traffic
// scenario, each from its file and piped through stdin. A piped
// scenario's phase paths resolve against the working directory.
func TestWrittenTraceDigests(t *testing.T) {
	examples := filepath.Join("..", "..", "examples")
	halo := filepath.Join(examples, "specs", "halo.json")
	mix := filepath.Join(examples, "scenarios", "steady-mix.json")
	haloBytes, err := os.ReadFile(halo)
	if err != nil {
		t.Fatal(err)
	}
	mixBytes, err := os.ReadFile(mix)
	if err != nil {
		t.Fatal(err)
	}
	mixPiped := bytes.ReplaceAll(mixBytes, []byte(`"../specs/`), []byte(`"`+filepath.ToSlash(filepath.Dir(halo))+`/`))
	const (
		fftSum  = "46637e06e0d10da96afbf9e38b74643afd326d752c780edb64b7f6d9fd721f15"
		haloSum = "96b2045ec5d1f82380b03dafc584f629b1344120caab7a802345c3559f1bdba4"
		mixSum  = "183fba72670f2062f1a6a2d334399040501219b534708403d8032bde17439a2d"
	)
	for _, tc := range []struct {
		name  string
		stdin []byte
		args  []string
		want  string
	}{
		{"record", nil, []string{"record", "-app", "fft"}, fftSum},
		{"gen-spec", nil, []string{"gen", "-spec", halo}, haloSum},
		{"gen-spec-stdin", haloBytes, []string{"gen", "-spec", "-"}, haloSum},
		{"gen-traffic", nil, []string{"gen", "-traffic", mix}, mixSum},
		{"gen-traffic-stdin", mixPiped, []string{"gen", "-traffic", "-"}, mixSum},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, out, stderr := runCLI(t, tc.stdin, append(tc.args, "-scale", "0.05", "-o", "-")...)
			if code != 0 {
				t.Fatalf("exit %d: %s", code, stderr)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out))); got != tc.want {
				t.Errorf("wrote %d bytes with SHA-256 %s, want %s", len(out), got, tc.want)
			}
		})
	}
}

// TestSnapshotResumeCLI: snapshot parks a replay mid-run in an .rnss
// checkpoint, resume finishes it, and the finished statistics byte-match
// an uninterrupted replay of the same trace; -T forks the checkpoint at
// a different relocation threshold.
func TestSnapshotResumeCLI(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "fft.trace")
	if err := os.WriteFile(tracePath, record(t), 0o644); err != nil {
		t.Fatal(err)
	}
	// Everything after each command's first line is report.RunSummary.
	stats := func(s string) string {
		if i := strings.Index(s, "\n"); i >= 0 {
			return s[i+1:]
		}
		return s
	}

	code, full, stderr := runCLI(t, nil, "replay", tracePath, "-protocol", "rnuma")
	if code != 0 {
		t.Fatalf("replay exited %d: %s", code, stderr)
	}

	snapPath := filepath.Join(dir, "pause.rnss")
	code, _, stderr = runCLI(t, nil, "snapshot", tracePath, "-refs", "15000", "-protocol", "rnuma", "-o", snapPath)
	if code != 0 {
		t.Fatalf("snapshot exited %d: %s", code, stderr)
	}
	if !strings.Contains(stderr, "paused at 15000 refs") {
		t.Errorf("snapshot progress line missing pause state: %s", stderr)
	}

	code, resumed, stderr := runCLI(t, nil, "resume", tracePath, "-snap", snapPath)
	if code != 0 {
		t.Fatalf("resume exited %d: %s", code, stderr)
	}
	if stats(resumed) != stats(full) {
		t.Errorf("resumed stats differ from uninterrupted replay:\n--- replay\n%s--- resume\n%s", stats(full), stats(resumed))
	}

	// Forking the checkpoint at a lower threshold matches a full replay
	// at that threshold (the snapshot predates any counter crossing).
	code, forked, stderr := runCLI(t, nil, "resume", tracePath, "-snap", snapPath, "-T", "4")
	if code != 0 {
		t.Fatalf("resume -T exited %d: %s", code, stderr)
	}
	code, fullLo, stderr := runCLI(t, nil, "replay", tracePath, "-protocol", "rnuma", "-T", "4")
	if code != 0 {
		t.Fatalf("replay -T exited %d: %s", code, stderr)
	}
	if stats(forked) != stats(fullLo) {
		t.Errorf("threshold-forked stats differ from full replay at T=4:\n--- replay\n%s--- resume\n%s", stats(fullLo), stats(forked))
	}

	// Default destination: <trace>.rnss next to the trace file.
	code, _, stderr = runCLI(t, nil, "snapshot", tracePath, "-refs", "5000", "-protocol", "ccnuma")
	if code != 0 {
		t.Fatalf("snapshot without -o exited %d: %s", code, stderr)
	}
	if _, err := os.Stat(tracePath + ".rnss"); err != nil {
		t.Errorf("default checkpoint path not written: %v", err)
	}

	// A -refs count past the end of the trace parks a complete machine.
	code, _, stderr = runCLI(t, nil, "snapshot", tracePath, "-refs", "99999999", "-protocol", "rnuma", "-o", snapPath)
	if code != 0 || !strings.Contains(stderr, "complete at") {
		t.Errorf("snapshot past the end (exit %d): %s", code, stderr)
	}

	// Error paths.
	if code, _, _ := runCLI(t, nil, "snapshot", tracePath, "-o", snapPath); code != 1 {
		t.Errorf("snapshot without -refs exited %d, want 1", code)
	}
	if code, _, _ := runCLI(t, record(t), "snapshot", "-", "-refs", "100"); code != 1 {
		t.Errorf("snapshot of stdin without -o exited %d, want 1", code)
	}
	if code, _, _ := runCLI(t, nil, "resume", tracePath); code != 1 {
		t.Errorf("resume without -snap exited %d, want 1", code)
	}
	if code, _, _ := runCLI(t, nil, "resume", tracePath, "-snap", filepath.Join(dir, "absent.rnss")); code != 1 {
		t.Errorf("resume with a missing checkpoint exited %d, want 1", code)
	}
}

// TestSnapshotSizedByUse: a checkpoint lists the page-cache frames a run
// created, not the configured capacity, so checkpoints under a 40-MiB and
// a 1-GiB page cache differ by a few bytes at most, and both resume to
// the uninterrupted run. S-COMA fills frames on every remote fault;
// R-NUMA fills none on fft, which never refetches.
func TestSnapshotSizedByUse(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "fft.trace")
	if err := os.WriteFile(tracePath, record(t), 0o644); err != nil {
		t.Fatal(err)
	}
	body := func(s string) string { return s[strings.Index(s, "\n")+1:] }
	for _, proto := range []string{"scoma", "rnuma"} {
		code, full, stderr := runCLI(t, nil, "replay", tracePath, "-protocol", proto, "-pc", "41943040")
		if code != 0 {
			t.Fatalf("%s replay exited %d: %s", proto, code, stderr)
		}
		var sizes []int64
		for _, pc := range []string{"41943040", "1073741824"} {
			snapPath := filepath.Join(dir, proto+pc+".rnss")
			if code, _, stderr := runCLI(t, nil, "snapshot", tracePath, "-refs", "15000", "-protocol", proto, "-pc", pc, "-o", snapPath); code != 0 {
				t.Fatalf("%s snapshot -pc %s exited %d: %s", proto, pc, code, stderr)
			}
			fi, err := os.Stat(snapPath)
			if err != nil {
				t.Fatal(err)
			}
			sizes = append(sizes, fi.Size())
			snap, err := snapfile.ReadFile(snapPath)
			if err != nil {
				t.Fatal(err)
			}
			if frames := len(snap.Nodes[0].PageCache.Frames); (proto == "scoma") != (frames > 0) {
				t.Errorf("%s -pc %s: node 0's checkpoint lists %d page-cache frames", proto, pc, frames)
			}
			code, resumed, stderr := runCLI(t, nil, "resume", tracePath, "-snap", snapPath)
			if code != 0 {
				t.Fatalf("%s resume -pc %s exited %d: %s", proto, pc, code, stderr)
			}
			if body(resumed) != body(full) {
				t.Errorf("%s -pc %s: resumed stats differ from the uninterrupted replay:\n--- replay\n%s--- resume\n%s", proto, pc, body(full), body(resumed))
			}
		}
		if d := sizes[1] - sizes[0]; d < -8 || d > 8 {
			t.Errorf("%s checkpoints under 40-MiB and 1-GiB page caches are %d and %d bytes", proto, sizes[0], sizes[1])
		}
	}
}

// TestTelemetryCLI: replay with a window renders the timeline report and
// exports JSON artifacts; a probed snapshot resumes into the identical
// series (byte-for-byte JSON); -timeline without -window defaults the
// window instead of exporting nothing.
func TestTelemetryCLI(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "fft.trace")
	if err := os.WriteFile(tracePath, record(t), 0o644); err != nil {
		t.Fatal(err)
	}

	tlPath := filepath.Join(dir, "tl.json")
	evPath := filepath.Join(dir, "ev.json")
	code, stdout, stderr := runCLI(t, nil, "replay", tracePath, "-window", "4096", "-timeline", tlPath, "-events", evPath)
	if code != 0 {
		t.Fatalf("probed replay exited %d: %s", code, stderr)
	}
	for _, want := range []string{"TIMELINE —", "window 4096 refs", "traffic"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("replay output missing %q:\n%s", want, stdout)
		}
	}
	tl, err := os.ReadFile(tlPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(tl), `"intervals"`) {
		t.Errorf("timeline JSON missing intervals:\n%.200s", tl)
	}
	ev, err := os.ReadFile(evPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(ev), `"events"`) {
		t.Errorf("events JSON missing events key:\n%.200s", ev)
	}

	// -timeline without -window defaults the window (65536) rather than
	// silently capturing nothing; "-" streams the JSON to stdout.
	code, stdout, stderr = runCLI(t, nil, "replay", tracePath, "-timeline", "-")
	if code != 0 {
		t.Fatalf("defaulted-window replay exited %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, `"window": 65536`) {
		t.Errorf("defaulted window missing from stdout JSON:\n%.400s", stdout)
	}

	// A probed checkpoint taken mid-window resumes into the exact series
	// the uninterrupted replay produced.
	snapPath := filepath.Join(dir, "probed.rnss")
	code, _, stderr = runCLI(t, nil, "snapshot", tracePath, "-refs", "5000", "-window", "4096", "-o", snapPath)
	if code != 0 {
		t.Fatalf("probed snapshot exited %d: %s", code, stderr)
	}
	resumedPath := filepath.Join(dir, "resumed.json")
	code, stdout, stderr = runCLI(t, nil, "resume", tracePath, "-snap", snapPath, "-timeline", resumedPath)
	if code != 0 {
		t.Fatalf("probed resume exited %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "TIMELINE —") {
		t.Errorf("probed resume renders no timeline:\n%s", stdout)
	}
	resumed, err := os.ReadFile(resumedPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tl, resumed) {
		t.Error("resumed timeline JSON differs from the uninterrupted replay's")
	}

	// An unprobed checkpoint cannot export a timeline.
	plainSnap := filepath.Join(dir, "plain.rnss")
	if code, _, stderr := runCLI(t, nil, "snapshot", tracePath, "-refs", "5000", "-o", plainSnap); code != 0 {
		t.Fatalf("plain snapshot exited %d: %s", code, stderr)
	}
	if code, _, _ := runCLI(t, nil, "resume", tracePath, "-snap", plainSnap, "-timeline", resumedPath); code != 1 {
		t.Errorf("resume of an unprobed checkpoint with -timeline exited %d, want 1", code)
	}
}

// TestDiffStatsTolerance: -tol keeps structural differences fatal while
// tolerating banded timing drift; identical runs pass any band.
func TestDiffStatsTolerance(t *testing.T) {
	data := record(t)
	dir := t.TempDir()
	orig := filepath.Join(dir, "fft.trace")
	if err := os.WriteFile(orig, data, 0o644); err != nil {
		t.Fatal(err)
	}

	code, stdout, stderr := runCLI(t, nil, "diffstats", orig, orig, "-tol", "5")
	if code != 0 {
		t.Fatalf("identical diffstats -tol exited %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "tolerance ±5%") || !strings.Contains(stdout, "ok: runs identical") {
		t.Errorf("tolerance summary missing:\n%s", stdout)
	}

	// A structurally different trace (a prefix cut) fails even under an
	// absurdly wide band.
	code, cut, stderr := runCLI(t, data, "cut", "-", "-to", "100", "-o", "-")
	if code != 0 {
		t.Fatalf("cut exited %d: %s", code, stderr)
	}
	cutPath := filepath.Join(dir, "cut.trace")
	if err := os.WriteFile(cutPath, []byte(cut), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, _ = runCLI(t, nil, "diffstats", orig, cutPath, "-tol", "99")
	if code != 1 {
		t.Fatalf("structural diffstats -tol exited %d, want 1", code)
	}
	if !strings.Contains(stdout, "structural") || !strings.Contains(stdout, "FAIL") {
		t.Errorf("structural failure not reported:\n%s", stdout)
	}

	// A dilated trace differs only in timing: a generous band passes it
	// (with warnings when anything moved), the default exact mode fails it.
	code, dilated, stderr := runCLI(t, data, "dilate", "-", "-factor", "101/100", "-o", "-")
	if code != 0 {
		t.Fatalf("dilate exited %d: %s", code, stderr)
	}
	dilPath := filepath.Join(dir, "dilated.trace")
	if err := os.WriteFile(dilPath, []byte(dilated), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, stdout, _ = runCLI(t, nil, "diffstats", orig, dilPath, "-tol", "50"); code != 0 {
		t.Fatalf("timing-only diffstats -tol 50 exited %d:\n%s", code, stdout)
	}
}

// TestDiffStatsNegativeTol: a negative tolerance band can never pass and
// used to silently mean "exact match"; it is now a usage error.
func TestDiffStatsNegativeTol(t *testing.T) {
	data := record(t)
	dir := t.TempDir()
	orig := filepath.Join(dir, "fft.trace")
	if err := os.WriteFile(orig, data, 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := runCLI(t, nil, "diffstats", orig, orig, "-tol", "-5")
	if code != 2 {
		t.Fatalf("diffstats -tol -5 exited %d, want 2 (usage error)", code)
	}
	if !strings.Contains(stderr, "-tol") {
		t.Errorf("stderr does not mention -tol:\n%s", stderr)
	}
}

// TestInfoZeroReferenceTrace: info on a structurally valid trace with no
// records and no shared pages must report zeros, not panic or divide by
// zero in the home-map percentages.
func TestInfoZeroReferenceTrace(t *testing.T) {
	var buf bytes.Buffer
	tw, err := tracefile.NewWriter(&buf, tracefile.Header{
		Name: "empty", Geometry: addr.Default, CPUs: 4, Nodes: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runCLI(t, buf.Bytes(), "info", "-")
	if code != 0 {
		t.Fatalf("info on an empty trace exited %d: %s", code, stderr)
	}
	for _, want := range []string{"references:   0", "shared pages: 0", "2 nodes, 4 CPUs"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("info output missing %q:\n%s", want, stdout)
		}
	}
}

// TestTrafficGenAndReplay drives the committed example scenarios end to
// end: gen -traffic produces an ordinary trace (info-readable), and
// replay, given the scenario positionally, reports the per-client
// counter table and timeline.
func TestTrafficGenAndReplay(t *testing.T) {
	scenario := filepath.Join("..", "..", "examples", "scenarios", "steady-mix.json")

	code, trc, stderr := runCLI(t, nil,
		"gen", "-traffic", scenario, "-scale", "0.05", "-o", "-")
	if code != 0 {
		t.Fatalf("gen -traffic exited %d: %s", code, stderr)
	}
	if !strings.Contains(stderr, "2 clients (halo, hotcold)") {
		t.Errorf("gen stderr missing the client summary:\n%s", stderr)
	}
	code, stdout, stderr := runCLI(t, []byte(trc), "info", "-")
	if code != 0 {
		t.Fatalf("info on a traffic trace exited %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "workload:     steady-mix") {
		t.Errorf("info output missing the scenario name:\n%s", stdout)
	}

	code, stdout, stderr = runCLI(t, nil,
		"replay", scenario, "-scale", "0.05", "-window", "4096")
	if code != 0 {
		t.Fatalf("replay of a scenario exited %d: %s", code, stderr)
	}
	for _, want := range []string{
		"traffic: steady-mix (2 clients",
		"CLIENTS",
		"halo", "hotcold",
		"per-client remote fetches:",
		"normalized exec time:",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("scenario replay output missing %q", want)
		}
	}

	// gen needs exactly one source.
	if code, _, _ := runCLI(t, nil, "gen", "-spec", "a.json", "-traffic", "b.json"); code != 1 {
		t.Errorf("gen with -spec and -traffic exited %d, want 1", code)
	}
}

func TestTrafficModeErrors(t *testing.T) {
	scenario := filepath.Join("..", "..", "examples", "scenarios", "steady-mix.json")
	if code, _, _ := runCLI(t, nil, "gen", "-traffic", "absent.json", "-o", "-"); code != 1 {
		t.Errorf("gen -traffic on a missing file exited %d, want 1", code)
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, stderr := runCLI(t, nil, "gen", "-traffic", bad, "-o", "-"); code != 1 || !strings.Contains(stderr, bad) {
		t.Errorf("gen -traffic on invalid content exited %d (%s), want 1 naming the file", code, stderr)
	}
	if code, _, _ := runCLI(t, nil, "replay", "absent.json"); code != 1 {
		t.Errorf("replay of a missing scenario file exited %d, want 1", code)
	}
	code, _, stderr := runCLI(t, nil, "replay", scenario, "-scale", "0.02", "-protocol", "doom")
	if code != 1 || !strings.Contains(stderr, "doom") {
		t.Errorf("scenario replay -protocol doom exited %d (%s), want 1 naming the protocol", code, stderr)
	}
	if code, _, _ := runCLI(t, nil, "replay", scenario, "-scale", "0.02",
		"-cpuprofile", filepath.Join(t.TempDir(), "no", "such", "dir", "p")); code != 1 {
		t.Errorf("scenario replay with an unwritable -cpuprofile exited %d, want 1", code)
	}
}
