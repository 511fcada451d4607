#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it:
#
#   bash schedbench/run.sh --workload paper-mcs --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and the spans of traced runs stay under
# .bench_build/ at the root of the checkout. Without the repository's
# source next to schedbench/ the build fails and nothing is printed.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"

export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/mod"
export XDG_CONFIG_HOME="$out/config"

go -C schedbench build -o "$out/schedbench" .
exec "$out/schedbench" "$@"
