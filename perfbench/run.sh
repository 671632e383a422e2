#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given flags. Run from the repository root:
#
#   bash perfbench/run.sh --workload eval_w28 --seed 1 --seconds 12 --trace 0
#
# Build cache, binary, spans, profiles and scratch directories all stay
# under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/config"

(
	cd "$root/perfbench"
	GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" XDG_CONFIG_HOME="$build/config" \
		GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off \
		go build -o "$build/bin/perfbench" .
) >&2

exec "$build/bin/perfbench" "$@"
