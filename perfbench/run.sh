#!/usr/bin/env bash
# Builds the benchmark against the sources of the checkout it is run from
# (the working directory must be the repository root) and runs it with the
# given arguments. Build output, the Go build cache and result files stay
# under .bench_build in the checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C perfbench -o "$build/bin/perfbench" .
exec "$build/bin/perfbench" "$@"
