#!/usr/bin/env bash
# Builds the perfbench binary from the checkout's sources and runs it with
# the given arguments, for example:
#
#   bash perfbench/run.sh --workload ft8 --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The build cache, the binary and the
# reports all stay under .bench_build/ in that directory; the build works
# offline (the module has no dependency outside the repository).
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOWORK=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

(cd "$here" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
