#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given (see README.md). Everything the build and the run write —
# the Go build cache, the binary, the nodes' data dirs — stays under
# .bench_build/ at the root of the checkout.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

# Keep the toolchain's own writes (build cache, module cache, work dirs,
# telemetry counters) inside the checkout too, and never fetch another
# toolchain or module.
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off

# The harness is its own module (bench/go.mod) built against the repo it
# sits in; with no repo around it the build fails and nothing runs.
(cd "$root/bench" && go build -o "$out/sorbench" .) >&2

cd "$root"
exec "$out/sorbench" -data "$out/data" "$@"
