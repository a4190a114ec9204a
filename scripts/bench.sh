#!/bin/sh
# Runs the parallel hot-path benchmarks: tensor matmul kernels (serial vs
# parallel vs worker sweep), semantic batch scoring, end-to-end training
# epochs with and without the prefetch pipeline, and the kvserver serving
# path (serial vs pipelined vs MGET wire disciplines).
#
# Default is a -benchtime=1x smoke run (each benchmark executes once, so CI
# catches breakage cheaply). Pass a different -benchtime for real numbers:
#
#   scripts/bench.sh                 # smoke run
#   BENCHTIME=2s scripts/bench.sh    # measurement run
set -eu
cd "$(dirname "$0")/.."

# Preflight: numbers from a tree that fails the verification gate are
# numbers about a different program. SKIP_CHECK=1 skips it when iterating
# on a single benchmark.
if [ "${SKIP_CHECK:-0}" != "1" ]; then
    SKIP_RACE="${SKIP_RACE:-1}" scripts/check.sh
fi

BENCHTIME="${BENCHTIME:-1x}"

go test -run '^$' -bench 'BenchmarkMatMul' -benchtime "$BENCHTIME" ./internal/tensor/
go test -run '^$' -bench 'BenchmarkScoreBatch' -benchtime "$BENCHTIME" ./internal/semgraph/
go test -run '^$' -bench 'BenchmarkEpoch' -benchtime "$BENCHTIME" ./internal/trainer/
go test -run '^$' -bench 'BenchmarkServerGet|BenchmarkStoreGet' -benchmem -benchtime "$BENCHTIME" ./internal/kvserver/

# kvserver throughput smoke: an in-process server driven by the spiderload
# closed-loop generator, once at one-op-per-round-trip and once pipelined.
# Scaled small so CI stays cheap; raise -ops for real measurements.
LOAD_OPS="${LOAD_OPS:-20000}"
go run ./cmd/spiderload -ops "$LOAD_OPS" -conns 2 -pipeline 1
go run ./cmd/spiderload -ops "$LOAD_OPS" -conns 2 -pipeline 16
go run ./cmd/spiderload -ops "$LOAD_OPS" -conns 2 -batch 16

# Neighborhood-snapshot A/B: ScoreBatch on a repeated-epoch workload with the
# snapshot cache off vs on at the default drift budget. Persists ns/op,
# SearchKNN calls per epoch, and the snapshot hit rate as BENCH_8.json.
go run ./cmd/spiderbench -snapshot-ab BENCH_8.json

# Semantic-serving A/B: the same capacity-constrained clustered key space
# driven once with exact GETs and once with every read issued as NGET
# against the node-local HNSW index. The exact run's misses are the
# ceiling semantic serving can recover from; the NGET run's summary
# carries the exact/near/miss split and the mean served distance.
# Persists both summaries as BENCH_10.json.
AB_OPS="${AB_OPS:-60000}"
nget_exact="$(mktemp)"
nget_sem="$(mktemp)"
trap 'rm -f "$nget_exact" "$nget_sem"' EXIT
go run ./cmd/spiderload -ops "$AB_OPS" -conns 2 -capacity 4096 -keys 16384 -zipf 0.99 \
    -json "$nget_exact"
go run ./cmd/spiderload -ops "$AB_OPS" -conns 2 -capacity 4096 -keys 16384 -zipf 0.99 \
    -nget-mix 1 -nget-threshold 0.3 -embed-dim 16 -embed-clusters 64 -json "$nget_sem"
{
    printf '{\n"exact_get": '
    cat "$nget_exact"
    printf ',\n"nget_semantic": '
    cat "$nget_sem"
    printf '}\n'
} > BENCH_10.json
echo "wrote BENCH_10.json (exact GET vs semantic NGET A/B)"

# Cluster resilience smoke (opt-in: boots real daemon processes and kills
# one mid-run, so it is slower and port-hungry). Persists BENCH_6.json.
#
#   CLUSTER_SMOKE=1 scripts/bench.sh
if [ "${CLUSTER_SMOKE:-0}" = "1" ]; then
    SKIP_CHECK=1 scripts/cluster_smoke.sh
fi
