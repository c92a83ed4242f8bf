#!/usr/bin/env bash
# Builds perfbench from the source tree it sits in and runs it with the
# given arguments. Run from the root of a godisc checkout:
#
#   bash perfbench/run.sh --workload zoo-direct --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, temporary files, binary)
# stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local \
	GOPROXY=off GOTELEMETRY=off
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
