#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload harvest --seed 1 --seconds 15 --trace 0
#
# The Go build cache and the binary live under .bench_build/ in the
# checkout; nothing is fetched (the module has no dependencies).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/l2qbench" .) >&2
cd "$root"
exec "$out/l2qbench" "$@"
