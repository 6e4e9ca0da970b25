#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload serve-hit --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every file the build and the run write
# stays under .bench_build/ in that directory: the Go build cache, the
# binary, the daemons' scratch journals and the traced runs' span files.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
# The go command keeps its telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$out/config"
# The benchmark and the repository have no outside dependencies: never
# download a module or a toolchain.
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
