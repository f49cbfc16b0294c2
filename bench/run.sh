#!/usr/bin/env bash
# Builds the benchmark program (a Go module of its own in this directory) and
# runs it from the root of the checkout, so that every build product, cache
# and temporary file stays under .bench_build in the checkout.
#
#   bash bench/run.sh --workload synth-hit --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh compare A.json B.json
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd bench && go build -o "$build/bin/dftsp-bench" .)
exec "$build/bin/dftsp-bench" "$@"
