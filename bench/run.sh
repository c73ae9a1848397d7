#!/usr/bin/env bash
# Builds the lred daemon and the benchmark from this checkout, then runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload sv-replay --seed 42 --seconds 20 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/lred || ! -f bench/go.mod ]]; then
	echo "bench/run.sh: run from the repository root (go.mod, cmd/lred and bench/ not found here)" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"

# Keep the Go build cache, module cache, tool config and every temporary
# file inside the checkout, never fetch a module or a toolchain, and ignore
# any workspace file.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go build -o "$out/bin/lred" ./cmd/lred
(cd bench && go build -o "$out/bin/bench" .)

exec "$out/bin/bench" -lred "$out/bin/lred" -work "$out" "$@"
