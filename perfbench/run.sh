#!/usr/bin/env bash
# Builds the CURE benchmark from source and runs it. Run it from the root
# of a checkout:
#
#   bash perfbench/run.sh --workload apb-build --seed 1 --seconds 40 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout: the Go build cache, the binary, the per-run work directory
# and the span files of traced runs.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config" "$out/tmp"
export TMPDIR="$out/tmp" GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/modcache" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" --workdir "$out" "$@"
