#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments (see DESIGN.md):
#
#   bash perfbench/run.sh --workload search-swap --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout: the Go build cache, the binary, temp files, the
# replicas' journals and the traced run's span files.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOTOOLCHAIN=local GOENV=off GOWORK=off
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"

(cd "$here" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
