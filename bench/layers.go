package main

import (
	"strings"
	"time"

	"spidercache/internal/hnsw"
	"spidercache/internal/nn"
	"spidercache/internal/telemetry"
	"spidercache/internal/tensor"
	"spidercache/internal/xrand"
)

// kvOps are the verbs the kvserver layer metrics break down by.
var kvOps = []string{"get", "set", "nget", "eset"}

// kvLayerMetrics fills the kvserver, semantic-index and cluster-node layer
// metrics from two METRICS scrapes of every node around the measured
// window, the servers' CPU over it and their peak RSS.
func kvLayerMetrics(m map[string]float64, before, after []series, cpuS, rssMiB float64) {
	var ops float64
	for _, op := range kvOps {
		n := sumDelta(before, after, `kv_op_seconds_count{op="`+op+`"}`)
		m["kv.ops_"+op] = n
		m["kv.op_p50_us."+op] = 1e6 * meanNonZero(after, `kv_op_seconds{op="`+op+`",quantile="0.5"}`)
		ops += n
	}
	rset := sumDelta(before, after, `kv_op_seconds_count{op="rset"}`)
	ops += rset
	if ops > 0 {
		m["kv.cpu_us_per_op"] = 1e6 * cpuS / ops
	}
	flushes := sumDelta(before, after, "kv_net_flushes_total")
	m["kv.flushes"] = flushes
	if flushes > 0 {
		m["kv.reqs_per_flush"] = sumDelta(before, after, "kv_pipeline_depth_sum") / flushes
	}
	m["kv.store_hits"] = sumDelta(before, after, "kv_hits")
	m["kv.store_misses"] = sumDelta(before, after, "kv_misses")
	m["kv.items"] = sumLast(after, "kv_items")
	m["kv.rss_mb"] = rssMiB

	m["kv.sem_exact"] = sumDelta(before, after, `kv_semantic_hits_total{result="exact"}`)
	near := sumDelta(before, after, `kv_semantic_hits_total{result="near"}`)
	m["kv.sem_near"] = near
	m["kv.sem_miss"] = sumDelta(before, after, `kv_semantic_hits_total{result="miss"}`)
	if near > 0 {
		m["kv.sem_mean_dist"] = sumDelta(before, after, "kv_semantic_dist_sum") / near
	}

	m["node.repl_ok"] = sumDelta(before, after, `kv_replication_total{result="ok"}`)
	m["node.repl_err"] = sumDelta(before, after, `kv_replication_total{result="error"}`)
	m["node.migration_keys"] = sumDelta(before, after, `kv_migration_keys_total{result="ok"}`)
	m["node.rset_ops"] = rset
	m["node.rset_p50_us"] = 1e6 * meanNonZero(after, `kv_op_seconds{op="rset",quantile="0.5"}`)
}

// clientLayerMetrics fills what the cluster client's own registry counts.
func clientLayerMetrics(m map[string]float64, reg *telemetry.Registry) {
	snap := reg.Snapshot()
	m["cluster.failover_rerouted"] = float64(snap.Counters[`kv_failover_total{result="rerouted"}`])
	m["cluster.failover_exhausted"] = float64(snap.Counters[`kv_failover_total{result="exhausted"}`])
	var retries int64
	for id, v := range snap.Counters {
		if strings.HasPrefix(id, "kv_retries_total") {
			retries += v
		}
	}
	m["cluster.retries"] = float64(retries)
}

// medianOfRuns times fn rounds times and returns the median duration of
// one of its iters inner iterations, in microseconds.
func medianOfRuns(rounds, iters int, fn func()) float64 {
	per := make([]float64, rounds)
	for r := range per {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		per[r] = float64(time.Since(t0).Microseconds()) / float64(iters)
	}
	return median(per)
}

// nnStepUS times one Forward+Backward on a batch of batchSize, called
// directly, on a fresh MLP of the shape the trainer just trained.
func nnStepUS(seed uint64, shape nn.MLPConfig, batchSize int) float64 {
	mlp, err := nn.NewMLP(shape, xrand.New(seed))
	if err != nil {
		return 0
	}
	rng := xrand.New(seed + 1)
	x := tensor.New(batchSize, shape.InputDim)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	labels := make([]int, batchSize)
	for i := range labels {
		labels[i] = rng.Intn(shape.Classes)
	}
	return medianOfRuns(5, 100, func() {
		mlp.Forward(x, labels)
		mlp.Backward(nil)
	})
}

// hnswSearchUS times one SearchKNN (k=8) on an index of 4096 clustered
// dim-16 points, called directly: the index's share of an NGET.
func hnswSearchUS(seed uint64) float64 {
	const n, dim, k = 4096, 16, 8
	ix, err := hnsw.New(hnsw.DefaultConfig())
	if err != nil {
		return 0
	}
	es := newEmbedSpace(seed, n, dim, 64, 0.08)
	vecs := make([][]float64, n)
	for i, v := range es.vec {
		vecs[i] = make([]float64, dim)
		for j, x := range v {
			vecs[i][j] = float64(x)
		}
		if err := ix.Upsert(i, vecs[i]); err != nil {
			return 0
		}
	}
	q := 0
	return medianOfRuns(5, 400, func() {
		ix.SearchKNN(vecs[q%n], k)
		q += 37
	})
}
