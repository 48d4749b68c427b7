#!/usr/bin/env bash
# Builds semblock and the benchmark harness from the checkout in the current
# directory, then runs one workload:
#
#   bash perfbench/run.sh --workload ingest-paper --seed 1 --seconds 20 --trace 0
#
# Every build product and run directory lives under .bench_build (or
# $CARGO_TARGET_DIR when set), including the Go build cache, so a run reads
# and writes nothing outside the checkout.
set -euo pipefail

root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/semblock" ]; then
	echo "perfbench: run from the root of a semblock checkout (no go.mod or cmd/semblock here)" >&2
	exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOENV="$out/config/go/env"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOTELEMETRY=off
go build -o "$out/semblock" ./cmd/semblock
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -server "$out/semblock" -work "$out" -manifest "$root/BENCHMARK.json" "$@"
