#!/usr/bin/env bash
# Builds the campaign benchmark from the checkout's sources and runs it.
# Usage (from the repository root):
#   bash campaignbench/run.sh --workload campaign-serial --seed 7 --seconds 30 --trace 0
# Build outputs and the Go build cache stay under .bench_build/ in the
# current directory, so a run reads and writes nothing outside it.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export XDG_CONFIG_HOME="$out/config" # the go command's telemetry counters
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export GOPATH="$out/gopath"
export GOENV=off
export GOTOOLCHAIN=local
export GOFLAGS=
# Telemetry off: otherwise the go command may start a detached child that
# processes its counters while the benchmark measures.
go telemetry off

(cd "$root/campaignbench" && go build -o "$out/campaignbench" .) >&2
exec "$out/campaignbench" "$@"
