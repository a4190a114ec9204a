#!/usr/bin/env bash
# Builds the harness and the spiderkv daemon from source into .bench_build/
# (build cache included, so nothing is written outside the checkout) and
# runs the harness with the arguments given.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
t0=$(date +%s.%N)
go build -C "$root/bench" -o "$out/harness" .
go build -C "$root" -o "$out/spiderkv" ./cmd/spiderkv
BENCH_BUILD_S=$(echo "$(date +%s.%N) $t0" | awk '{printf "%.3f", $1-$2}')
export BENCH_BUILD_S
cd "$root"
exec "$out/harness" -spiderkv "$out/spiderkv" "$@"
