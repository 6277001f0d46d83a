// Command rnuma-serve is the long-running experiment daemon: an
// HTTP/JSON service over the harness (internal/serve). Upload traces,
// specs, and traffic scenarios; submit replay, sweep, grid (two-axis
// heat map + knee summary), diffstats, and experiments jobs; poll or
// stream progress; fetch reports as text or JSON.
//
// All jobs share one result store, so repeated and overlapping
// submissions re-simulate nothing; with -store-dir the store persists
// across restarts.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rnuma/internal/harness"
	"rnuma/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr, nil))
}

// run is the whole daemon, injectable for the in-process test suite:
// args stand in for os.Args[1:], and when ready is non-nil the bound
// listener address is sent on it once the server accepts connections.
// Exit codes: 0 clean shutdown, 1 runtime error, 2 usage.
func run(args []string, stderr io.Writer, ready chan<- net.Addr) int {
	fs := flag.NewFlagSet("rnuma-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:7415", "listen address")
	scale := fs.Float64("scale", 1.0, "workload scale (iteration multiplier)")
	seed := fs.Int64("seed", 0, "workload RNG seed")
	workers := fs.Int("workers", 0, "simulation fan-out per job (0 = GOMAXPROCS)")
	jobs := fs.Int("jobs", 2, "jobs executing concurrently")
	storeDir := fs.String("store-dir", "", "persist results to this directory (empty = in-memory only)")
	traces := fs.String("traces", "", "comma-separated trace files to preload as artifacts")
	verbose := fs.Bool("v", false, "log server events to stderr")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var store harness.Store
	if *storeDir != "" {
		ds, err := harness.NewDiskStore(*storeDir)
		if err != nil {
			fmt.Fprintf(stderr, "rnuma-serve: %v\n", err)
			return 1
		}
		store = ds
	}
	opts := serve.Options{
		Scale:   *scale,
		Seed:    *seed,
		Workers: *workers,
		MaxJobs: *jobs,
		Store:   store,
	}
	if *verbose {
		opts.Log = stderr
	}
	s := serve.New(opts)

	for _, path := range strings.Split(*traces, ",") {
		if path = strings.TrimSpace(path); path == "" {
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(stderr, "rnuma-serve: %v\n", err)
			return 1
		}
		a, _, err := s.AddArtifact(harness.KindTrace, data)
		if err != nil {
			fmt.Fprintf(stderr, "rnuma-serve: %s: %v\n", path, err)
			return 1
		}
		fmt.Fprintf(stderr, "rnuma-serve: preloaded %s as %s (%s)\n", path, a.ID[:12], a.Name)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "rnuma-serve: %v\n", err)
		return 1
	}
	srv := &http.Server{Handler: s.Handler()}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	fmt.Fprintf(stderr, "rnuma-serve: listening on %s\n", ln.Addr())
	if ready != nil {
		ready <- ln.Addr()
	}

	select {
	case err := <-errc:
		fmt.Fprintf(stderr, "rnuma-serve: %v\n", err)
		return 1
	case sig := <-sigc:
		fmt.Fprintf(stderr, "rnuma-serve: %v, shutting down\n", sig)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(stderr, "rnuma-serve: shutdown: %v\n", err)
		return 1
	}
	return 0
}
