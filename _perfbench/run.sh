#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the repository root:
#
#   bash _perfbench/run.sh --workload learn|feed|serve --seed N --seconds S --trace 0|1
#   bash _perfbench/run.sh compare PARENT_DIR CHANGE_DIR
#
# Everything the build and the runs write stays under .bench_build/ in
# the current directory: the Go build cache, the binary, durable
# directories, and span files.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(pwd)/.bench_build/perfbench"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= CGO_ENABLED=0

(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
