#!/usr/bin/env bash
# Builds the benchmark (a Go module of its own that imports the
# repository through a replace directive) into benchmark/.build and
# runs it. Everything the build and the run write stays in this
# directory, under .build/ and out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/.build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/bsbench" .)
exec "$build/bsbench" -out "$here/out" -benchmark-json "$here/../BENCHMARK.json" "$@"
