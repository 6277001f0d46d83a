#!/usr/bin/env bash
# Builds rnuma-serve and the benchmark from this checkout's sources, then
# runs one benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload eval|em3d_grid|serve_mix --seed N --seconds S --trace 0|1
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: binaries, the Go build cache and temporary files.
set -euo pipefail

if [ ! -f go.mod ] || ! grep -qx 'module rnuma' go.mod || [ ! -d cmd/rnuma-serve ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the root of an rnuma checkout (go.mod, cmd/rnuma-serve and perfbench/ must exist)" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/gocache" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOTELEMETRY=off

go build -o "$out/bin/rnuma-serve" ./cmd/rnuma-serve >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2

exec "$out/bin/perfbench" -root "$root" -serve "$out/bin/rnuma-serve" -scratch "$out/tmp" "$@"
