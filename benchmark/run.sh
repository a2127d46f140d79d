#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository's
# root. Everything the build leaves behind — Go's build cache included —
# goes under .bench_build in the checkout, so a run reads and writes
# nothing outside it. The first run in a checkout compiles the standard
# library into that cache and takes about a minute; later ones a second.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
# The go command keeps its telemetry counters in the user's configuration
# directory; give it one inside the checkout.
export XDG_CONFIG_HOME="$build/config"

(cd "$here" && go build -o "$build/servedbench" .)
cd "$root"
exec "$build/servedbench" "$@"
