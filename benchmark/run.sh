#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ at the root of the checkout and
# runs it with the given arguments (see main.go). The Go build cache, module
# cache, telemetry counters and temporary files are kept under
# .bench_build/ too, so nothing is written outside the checkout. The
# benchmark is a module of its own that imports the repository's packages
# through a replace directive, so in a directory holding only
# BENCHMARK.json and benchmark/ the build fails and this script exits
# non-zero without printing a result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-modcacherw
(cd "$here" && go build -o "$out/benchmark" .)
exec "$out/benchmark" "$@"
