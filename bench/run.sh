#!/usr/bin/env bash
# Builds the benchmark from source into <checkout>/.bench_build and runs it
# with the arguments given. Everything the build and the run write (Go build
# cache, link scratch, graph file, disk stores) stays inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/lsdgnn-bench" .)
exec "$build/lsdgnn-bench" -out "$here/out" -tmp "$build/tmp" "$@"
