#!/bin/sh
# One-shot verification gate: formatting, module hygiene, build, vet with an
# explicit check list, the project's own static analysis (spiderlint), the
# full test suite (every allocation pin included), the bench module's vet
# and short tests, the race-sensitive subset under -race, and the
# kill-a-node schedule, the join read check, the opposite-owner-order Sets,
# the ESET-beside-eviction lock order, the torn-reply check and the NEAR
# oracle five times under -race. It parses no benchmark output: benchmarks measure, tests pin.
# Everything CI (and a careful human) runs before trusting a tree, in
# dependency order — cheap, syntactic gates first, so failures surface fast.
#
#   scripts/check.sh
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

# go test includes every allocation pin: the store's GET
# (TestStoreGetZeroAlloc), each request's (TestServeOneAllocs: none on a
# resident key, so the daemon needs no collector target), Ring.OwnersKey's,
# and the hnsw hot path's (TestHotPathAllocs, TestSettleAllocs).
echo "== go test"
go test ./...

# bench/ is its own module, so nothing above compiles it. Its decorators
# wrap product types method for method (timedSearcher = Upsert/SearchKNN/Len,
# checkedRemote): a product change that breaks them should fail here and not
# in the benchmark pipeline.
echo "== bench module (go vet, go test -short)"
(cd bench && go vet ./... && go test -short ./...)

echo "== go test -race (concurrency-sensitive subset)"
go test -race \
    ./internal/telemetry/... ./internal/kvserver/... ./internal/cache/... \
    ./internal/hnsw/... ./internal/semgraph/... ./internal/trainer/... \
    ./internal/tensor/... ./internal/nn/... \
    ./internal/par/... ./internal/leakcheck/... \
    ./internal/faultnet/... ./internal/cluster/...

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
# carry another SET's bytes; and the NEAR oracle, four clients' NGETs
# beside SETs and ESETs that evict, each reply checked against the key
# space (payload, threshold, distance), which also races the sessions'
# lookup scratch. One pass can get lucky with timing, so run them five
# times under the race detector.
echo "== kill-a-node, join, lock orders, torn replies and NEAR oracle (-race -count=5)"
go test -race -count=5 \
    -run '^(TestKillNodeMidRun|TestPoolNodeRestart|TestJoinKeepsEveryKeyReadable|TestSetOppositeOwnerOrders|TestESetBesideEvictingSetsLockOrder|TestRepliesNeverTorn|TestNearRepliesMatchOracle)' \
    ./internal/cluster/ ./internal/kvserver/

echo "check.sh: all gates passed"
