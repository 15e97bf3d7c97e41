#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it with the arguments given. Everything the build and
# the run write (Go's build cache, temporary files, the disk-store
# workload's checkpoints) stays inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOTELEMETRY=off
if [ -z "${HOME:-}" ] && [ -z "${GOPATH:-}" ]; then
	export GOPATH="$build/gopath" # go refuses to run with no module cache location at all
fi
(cd "$here" && go build -o "$build/benchmark" .)
exec "$build/benchmark" "$@"
