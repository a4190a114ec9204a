#!/bin/sh
# One-shot verification gate: formatting, module hygiene, build, vet with an
# explicit check list, the project's own static analysis (spiderlint), the
# full test suite, the hnsw allocation gate, the bench module's vet and short
# tests, the race-sensitive subset under -race, and the kill-a-node schedule,
# the join read check, the opposite-owner-order Sets, the
# ESET-beside-eviction lock order and the torn-reply check five times under
# -race. Everything CI
# (and a careful human) runs before trusting a tree, in dependency order —
# cheap, syntactic gates first, so failures surface fast.
#
#   scripts/check.sh          # full gate
#   SKIP_RACE=1 scripts/check.sh  # skip the -race subset (slowest stage)
#   RACE_FULL=1 scripts/check.sh  # run the ENTIRE suite under -race, not
#                                 # just the concurrency-sensitive subset
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go mod tidy -diff"
go mod tidy -diff

echo "== go build"
go build ./...

# Explicit vet list: the default set plus the concurrency- and
# cancellation-sensitive analyzers this codebase leans on. Spelled out so a
# toolchain default changing under us never silently drops a check.
echo "== go vet"
go vet \
    -atomic -bools -buildtag -copylocks -errorsas -loopclosure \
    -lostcancel -nilfunc -printf -stdmethods -unreachable -unusedresult \
    ./...

echo "== spiderlint"
go run ./cmd/spiderlint ./...

# go test includes the store's GET zero-alloc guarantee
# (TestStoreGetZeroAlloc).
echo "== go test"
go test ./...

# The trainer upserts and searches the HNSW index once per sample per
# batch, the cache tier deletes from it once per eviction, and the index's
# hot path is built to take its working memory from a pooled scratch: an
# allocation there would silently reintroduce per-op garbage, and nothing
# else in the suite would notice. Gate on the benchmarks' own -benchmem
# accounting. An update of an existing point, with its share of the settle
# that re-links the batch (the update benchmarks settle every 64 updates),
# and a delete must allocate nothing, a search only the slice it returns,
# at the trainer's width and at the NGET lookup's.
# A batch of scoring (64 due updates, then a search per point, each
# answered from the settle's beam) must allocate its 64 results and no
# more; it runs on one core, where a settle calls its one picker directly,
# since a settle on more forks its pickers through par.For, which
# allocates the block function, a WaitGroup and a goroutine closure per
# extra block (TestSettleAllocs bounds that), and for fewer ops, since one
# is a batch.
# The line count is checked so that a benchmark going missing cannot pass
# the gate.
echo "== hnsw alloc regression (update Upsert and Delete 0 allocs/op, SearchKNN <= 1, a scored batch <= 64)"
hnsw_out="$(go test -run '^$' -bench '^Benchmark(Update|UpdateDrift|SearchKNN|Delete)$' \
    -benchtime 2000x -benchmem ./internal/hnsw/)
$(go test -run '^$' -bench '^BenchmarkSettleThenScore$' -benchtime 100x -benchmem -cpu 1 ./internal/hnsw/)"
echo "$hnsw_out"
echo "$hnsw_out" | awk '
    /^BenchmarkUpdate/ && / allocs\/op/ {
        seen++
        if ($(NF-1)+0 != 0) { print "hnsw update allocates: " $0 > "/dev/stderr"; bad = 1 }
    }
    /^BenchmarkDelete/ && / allocs\/op/ {
        seen++
        if ($(NF-1)+0 != 0) { print "hnsw delete allocates: " $0 > "/dev/stderr"; bad = 1 }
    }
    /^BenchmarkSearchKNN/ && / allocs\/op/ {
        seen++
        if ($(NF-1)+0 > 1) { print "hnsw search allocates more than its result: " $0 > "/dev/stderr"; bad = 1 }
    }
    /^BenchmarkSettleThenScore/ && / allocs\/op/ {
        seen++
        if ($(NF-1)+0 > 64) { print "hnsw scored batch allocates more than its results: " $0 > "/dev/stderr"; bad = 1 }
    }
    END {
        if (seen != 8) { print "expected 8 hnsw benchmark lines, saw " seen+0 > "/dev/stderr"; bad = 1 }
        exit bad
    }'

# bench/ is its own module, so nothing above compiles it. Its decorators
# wrap product types method for method (timedSearcher = Upsert/SearchKNN/Len,
# checkedRemote): a product change that breaks them should fail here and not
# in the benchmark pipeline.
echo "== bench module (go vet, go test -short)"
(cd bench && go vet ./... && go test -short ./...)

if [ "${RACE_FULL:-0}" = "1" ]; then
    # Opt-in: every package under the race detector, not just the curated
    # subset. Slow (it adds the root package's end-to-end training runs and
    # internal/experiments' tables under the detector), so it is a
    # deliberate pre-release gate rather than the default.
    echo "== go test -race ./... (RACE_FULL)"
    go test -race ./...
elif [ "${SKIP_RACE:-0}" != "1" ]; then
    echo "== go test -race (concurrency-sensitive subset)"
    go test -race \
        ./internal/telemetry/... ./internal/kvserver/... ./internal/cache/... \
        ./internal/hnsw/... ./internal/semgraph/... ./internal/trainer/... \
        ./internal/tensor/... ./internal/nn/... \
        ./internal/par/... ./internal/leakcheck/... \
        ./internal/faultnet/... ./internal/cluster/...
fi

# The failure path's behavioural gates: a daemon killed under load,
# through the static-seed client the benchmarks build, and a node closed
# under a pool and restarted on its address, which the pool must not dial
# within its backoff and must reach after it. Beside them, the two
# lock-order gates: Sets whose owners come in opposite placement orders
# share one connection per node, and would deadlock if a Set took its
# owners' connections in placement order; and ESETs of keys that are not
# resident run beside SETs that evict from the same shard, which would
# deadlock if either held the shard mutex or the semantic index's mutex
# while taking the other. Beside them, the torn-reply gate: SETs that
# recycle a displaced value's buffer beside GETs and NGETs of the same
# keys, where a reply that copied its value after the shard mutex would
# carry another SET's bytes. One pass can get lucky with timing, so run
# them five times under the race detector.
echo "== kill-a-node, join, lock orders and torn replies (-race -count=5)"
go test -race -count=5 \
    -run '^(TestKillNodeMidRun|TestPoolNodeRestart|TestJoinKeepsEveryKeyReadable|TestSetOppositeOwnerOrders|TestESetBesideEvictingSetsLockOrder|TestRepliesNeverTorn)' \
    ./internal/cluster/ ./internal/kvserver/

echo "check.sh: all gates passed"
