#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it, passing
# every argument through. Run it from the repository root:
#
#   bash benchmark/run.sh --workload mixed-adapt --seed 1 --seconds 20 --trace 0
#
# The build output goes to stderr, so the last line of stdout is the
# result object. A checkout without the repository's sources fails to
# build and exits non-zero without printing a result.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$(dirname "$here")/.bench_build"
mkdir -p "$out"
# Keep every file the Go toolchain writes (build cache, module cache,
# settings, telemetry) inside the checkout, and never reach the network:
# the benchmark module depends only on the repository itself.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$out/adaptnoc-bench" .) >&2
exec "$out/adaptnoc-bench" "$@"
