#!/usr/bin/env bash
# Builds the benchmark program from this checkout's sources and runs it with
# the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload inmem-dense --seed 1 --seconds 30 --trace 0
#
# The Go build cache, the toolchain's config and telemetry, temporary
# files, and the binary stay under .bench_build in the checkout. Go's
# telemetry is turned off there: in its default mode the go command starts a
# detached upload process that would outlive this script.
set -euo pipefail
if [[ ! -f go.mod || ! -f pdtl.go ]]; then
	echo "perfbench: run from the root of a pdtl checkout (go.mod and the module's sources are missing)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config/go/telemetry"
printf 'off\n' > "$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=vendor GOENV=off GOWORK=off GOTOOLCHAIN=local
go build -o "$out/perfbench" ./perfbench >&2
exec "$out/perfbench" "$@"
