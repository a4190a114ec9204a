// Package trainer drives DNN training runs against pluggable cache/sampling
// policies, implementing the paper's Algorithm 1 end to end:
//
//	for each epoch, for each batch:
//	    serve samples through the policy's caches (miss -> remote storage)
//	    forward pass  -> per-sample losses + embeddings
//	    backward pass -> SGD update (policies may skip samples)
//	    policy IS stage (graph scoring, cache updates)
//	elastic control at epoch end
//
// All performance numbers are accounted in virtual time (internal/simclock):
// storage fetches from the storage simulator, compute stages from the model
// cost profile (Table 1), with the Fig 12 pipeline hiding the IS stage
// behind Stage 2 (and, for long-IS models, the next batch's Stage 1). The
// learning itself is real — an MLP trained with SGD — so accuracy, loss and
// embedding dynamics are genuine rather than scripted.
package trainer

import (
	"fmt"
	"math"
	"time"

	"spidercache/internal/dataset"
	"spidercache/internal/nn"
	"spidercache/internal/policy"
	"spidercache/internal/simclock"
	"spidercache/internal/storage"
	"spidercache/internal/telemetry"
	"spidercache/internal/tensor"
	"spidercache/internal/xrand"
)

// RemoteCache is a shared cache tier between the workers and backing
// storage — in deployment, a kvserver cluster reached through
// internal/cluster.Client, which satisfies this interface directly. The
// trainer treats it as strictly best-effort: a Get error degrades the
// sample to a backing-storage fetch, and a failed Set is dropped, so an
// unreachable cluster slows training but never fails it.
//
// Run calls it only from its own goroutine, one call at a time.
type RemoteCache interface {
	// Get returns the cached payload for a sample ID. found=false with a
	// nil error is a clean miss.
	Get(id int) (payload []byte, found bool, err error)
	// Set stores the payload for a sample ID.
	Set(id int, payload []byte) error
}

// Config describes one training run. The cost model's constants are not
// among its fields: misses are charged at the storage package's cost model, batches
// at preprocessCost and commCost, and the learner's shape is derived from
// Dataset and Model (see learner).
type Config struct {
	Dataset *dataset.Dataset
	Model   nn.Profile
	Epochs  int
	// BatchSize is the mini-batch size; Table 1 stage costs are charged
	// per mini-batch.
	BatchSize int
	// Workers is the simulated data-parallel GPU count (Fig 17). Remote
	// storage bandwidth is shared across workers; compute and memory-tier
	// reads scale with the worker count.
	Workers int
	// PipelineIS enables the Fig 12 overlap of the IS stage; disabling it
	// charges the full IS cost on the critical path (ablation).
	PipelineIS bool
	// SerialLoading disables the DataLoader prefetch pipeline, charging
	// loading and compute sequentially. The default (false) matches real
	// training stacks — PyTorch DataLoader workers prefetch the next batch
	// while the GPU computes — so a batch's wall time is
	// max(loading, compute), and removing I/O stalls translates almost 1:1
	// into wall-clock savings, as in the paper's end-to-end numbers.
	SerialLoading bool
	// RemoteCache, when set, is consulted on every policy miss before the
	// backing-storage fetch: a hit is served at memory-tier cost, a miss
	// or error falls through to storage (and the fetched payload is
	// written back best-effort). The sample still counts as a policy miss
	// in EpochStats either way. Nil disables the tier.
	RemoteCache RemoteCache
	// Metrics receives live serving-path telemetry (per-tier lookup
	// counters, simulated fetch latency histograms, remote-cache outcomes,
	// tensor kernel dispatches); nil disables recording. Accuracy, loss
	// and epoch times are in the returned Result, not here.
	Metrics *telemetry.Registry
	Seed    uint64
}

// Validate reports a descriptive error for unusable configurations.
func (c Config) Validate() error {
	switch {
	case c.Dataset == nil:
		return fmt.Errorf("trainer: Dataset must not be nil")
	case c.Epochs < 1:
		return fmt.Errorf("trainer: Epochs must be >= 1, got %d", c.Epochs)
	case c.BatchSize < 1:
		return fmt.Errorf("trainer: BatchSize must be >= 1, got %d", c.BatchSize)
	case c.Workers < 1:
		return fmt.Errorf("trainer: Workers must be >= 1, got %d", c.Workers)
	case c.Model.Name == "":
		return fmt.Errorf("trainer: Model profile must be set")
	}
	return nil
}

const (
	// preprocessCost is the per-batch decode/collate charge (the paper's
	// lightweight Preprocessing stage, Fig 3a).
	preprocessCost = 4 * time.Millisecond
	// commCost is the per-round gradient-synchronisation charge added per
	// extra worker (Fig 17's "communication costs").
	commCost = 3 * time.Millisecond
)

// learner is the MLP a run trains, derived from the dataset and the model
// profile. It over-provisions the hidden layer: rare hard subclusters must
// be learnable without displacing easy mass, as they are for the
// overparameterised CNNs the paper trains.
func (c Config) learner() nn.MLPConfig {
	return nn.MLPConfig{
		InputDim:  c.Dataset.Config.Dim,
		HiddenDim: max(4*c.Model.EmbedDim, 128),
		EmbedDim:  c.Model.EmbedDim,
		Classes:   c.Dataset.Config.Classes,
		LR:        0.05,
		Momentum:  0.9,
		WeightDec: 1e-4,
	}
}

// EpochStats records one epoch of a run.
type EpochStats struct {
	Epoch    int
	Requests int
	HitCache int // served by a cache with the requested sample itself
	HitSub   int // served by a substitute (homophily / random replacement)
	Misses   int

	LoadTime    time.Duration // data-loading share (fetch + hit service)
	PreprocTime time.Duration
	ComputeTime time.Duration // forward + backward
	ISTime      time.Duration // visible (non-hidden) IS cost
	CommTime    time.Duration
	EpochTime   time.Duration // wall time under the worker model

	Accuracy  float64 // held-out Top-1 after this epoch
	TrainLoss float64 // mean training loss over the epoch
	ScoreStd  float64 // σ of importance scores (0 if not reported)
	ImpRatio  float64 // Importance Cache share (0 if not reported)

	// SearchKNN is this epoch's ANN search count (0 if the policy does
	// not report search statistics).
	SearchKNN int64
	// SnapshotHits is always 0, kept for bench/ until the benchmark-only
	// PR.
	SnapshotHits int64
}

// HitRatio returns (cache + substitute hits) / requests.
func (e EpochStats) HitRatio() float64 {
	if e.Requests == 0 {
		return 0
	}
	return float64(e.HitCache+e.HitSub) / float64(e.Requests)
}

// Result aggregates a full run.
type Result struct {
	Policy  string
	Model   string
	Dataset string
	Epochs  []EpochStats

	TotalTime time.Duration
	FinalAcc  float64
	BestAcc   float64

	// FinalModel is the trained learner. Fig 8 reads it for the embedding
	// geometry and the held-out accuracy per planted population.
	FinalModel *nn.MLP
}

// AvgHitRatio returns the mean per-epoch hit ratio across the run.
func (r *Result) AvgHitRatio() float64 {
	if len(r.Epochs) == 0 {
		return 0
	}
	var s float64
	for _, e := range r.Epochs {
		s += e.HitRatio()
	}
	return s / float64(len(r.Epochs))
}

// runTelemetry groups the serving-path instruments, resolved once per run.
// With a nil registry every instrument is a shared no-op, so the hot loop
// records unconditionally.
type runTelemetry struct {
	lookCache *telemetry.Counter // served by a cache, requested sample itself
	lookSub   *telemetry.Counter // served by a homophily/random substitute
	lookMiss  *telemetry.Counter // fetched from remote storage

	fetchRemote *telemetry.Histogram // simulated per-sample remote fetch
	fetchMemory *telemetry.Histogram // simulated per-sample memory-tier read

	rcHit  *telemetry.Counter // policy miss served by the remote cache tier
	rcMiss *telemetry.Counter // remote cache answered, value absent
	rcErr  *telemetry.Counter // remote cache unreachable; degraded to storage

	// Tensor kernel dispatches, exported as per-epoch deltas of the
	// process-global tensor counters (training runs execute serially, so
	// the deltas attribute cleanly to this run's epochs).
	kernelsPar *telemetry.Counter
	kernelsSer *telemetry.Counter

	lastKernPar, lastKernSer int64
}

func newRunTelemetry(reg *telemetry.Registry) runTelemetry {
	reg.Describe("lookups_total", "sample lookups per serving tier (cache/substitute/miss)")
	reg.Describe("fetch_seconds", "simulated per-sample fetch latency per storage tier (p50/p95/p99)")
	reg.Describe("remote_cache_total", "policy-miss consultations of the remote cache tier by outcome (hit/miss/error)")
	reg.Describe("tensor_kernels_total", "tensor kernel dispatches by mode (parallel/serial)")
	kp, ks := tensor.KernelStats()
	return runTelemetry{
		lookCache:   reg.Counter("lookups_total", telemetry.Labels{"source": "cache"}),
		lookSub:     reg.Counter("lookups_total", telemetry.Labels{"source": "substitute"}),
		lookMiss:    reg.Counter("lookups_total", telemetry.Labels{"source": "miss"}),
		fetchRemote: reg.Histogram("fetch_seconds", telemetry.Labels{"tier": "remote"}),
		fetchMemory: reg.Histogram("fetch_seconds", telemetry.Labels{"tier": "memory"}),

		rcHit:  reg.Counter("remote_cache_total", telemetry.Labels{"result": "hit"}),
		rcMiss: reg.Counter("remote_cache_total", telemetry.Labels{"result": "miss"}),
		rcErr:  reg.Counter("remote_cache_total", telemetry.Labels{"result": "error"}),

		kernelsPar: reg.Counter("tensor_kernels_total", telemetry.Labels{"mode": "parallel"}),
		kernelsSer: reg.Counter("tensor_kernels_total", telemetry.Labels{"mode": "serial"}),

		lastKernPar: kp, lastKernSer: ks,
	}
}

// flushKernelStats publishes the per-epoch deltas of the process-global
// tensor-kernel counters.
func (t *runTelemetry) flushKernelStats() {
	kp, ks := tensor.KernelStats()
	t.kernelsPar.Add(kp - t.lastKernPar)
	t.kernelsSer.Add(ks - t.lastKernSer)
	t.lastKernPar, t.lastKernSer = kp, ks
}

// Run trains cfg.Epochs epochs under pol and returns the full record.
func Run(cfg Config, pol policy.Policy) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if pol == nil {
		return nil, fmt.Errorf("trainer: policy must not be nil")
	}
	rng := xrand.New(cfg.Seed)
	store, err := storage.New(rng.Split())
	if err != nil {
		return nil, err
	}
	shape := cfg.learner()
	mlp, err := nn.NewMLP(shape, rng.Split())
	if err != nil {
		return nil, err
	}

	ds := cfg.Dataset
	testX := tensor.FromRows(ds.TestFeatures)
	clock := &simclock.Clock{}
	res := &Result{
		Policy:  pol.Name(),
		Model:   cfg.Model.Name,
		Dataset: ds.Config.Name,
	}

	tel := newRunTelemetry(cfg.Metrics)
	baseLR := shape.LR
	var lastSearches int64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		// Cosine learning-rate decay to 10% of the base rate, the standard
		// schedule for the paper's fixed-epoch training runs; it keeps late
		// epochs stable for every sampling policy.
		frac := float64(epoch) / float64(cfg.Epochs)
		mlp.SetLR(baseLR * (0.55 + 0.45*math.Cos(math.Pi*frac)))
		st := runEpoch(cfg, pol, store, mlp, clock, epoch, &tel)
		st.Accuracy, _ = mlp.Evaluate(testX, ds.TestLabels)
		pol.OnEpochEnd(epoch, st.Accuracy)
		tel.flushKernelStats()
		if rep, ok := pol.(policy.ScoreStdReporter); ok {
			st.ScoreStd = rep.ScoreStd()
		}
		if rep, ok := pol.(policy.RatioReporter); ok {
			st.ImpRatio = rep.ImpRatio()
		}
		if rep, ok := pol.(policy.SearchStatsReporter); ok {
			searches, _ := rep.SearchStats()
			st.SearchKNN = searches - lastSearches
			lastSearches = searches
		}
		res.Epochs = append(res.Epochs, st)
		if st.Accuracy > res.BestAcc {
			res.BestAcc = st.Accuracy
		}
	}
	res.TotalTime = clock.Now()
	res.FinalModel = mlp
	if n := len(res.Epochs); n > 0 {
		res.FinalAcc = res.Epochs[n-1].Accuracy
	}
	return res, nil
}

// runEpoch executes one epoch and returns its stats (accuracy filled by the
// caller).
//
// Batch t's backward pass runs on a goroutine while this one runs batch
// t's IS stage (OnBatchEnd) and serves batch t+1, the most overlap exact
// semantics allow: Forward(t+1) needs Backward(t)'s weights, serving t+1
// needs the policy state OnBatchEnd(t) leaves, and Backward touches only
// the MLP while the policy touches only its own state and the Feedback
// copies. Every policy call stays on this goroutine in the serial order,
// so results are bit-equal to running the stages one after the other. The
// last Backward is joined before runEpoch returns, so Evaluate sees it.
func runEpoch(cfg Config, pol policy.Policy, store *storage.Store, mlp *nn.MLP, clock *simclock.Clock, epoch int, tel *runTelemetry) EpochStats {
	ds := cfg.Dataset
	st := EpochStats{Epoch: epoch}
	order := pol.EpochOrder(epoch)
	w := float64(cfg.Workers)

	var batches [][]int
	for start := 0; start < len(order); start += cfg.BatchSize {
		end := start + cfg.BatchSize
		if end > len(order) {
			end = len(order)
		}
		batches = append(batches, order[start:end])
	}

	var lossSum float64
	var lossN int
	span := clock.Start()

	var bw backwardStep
	// Also reaps a Backward still running when serving panics.
	defer bw.join()
	for b := 0; b < len(batches); b++ {
		// --- Data Loading: serve each requested sample. Misses share the
		// remote link across workers; hits are served from worker-local
		// memory tiers and scale with the worker count.
		data := serveBatch(pol, store, ds, batches[b], cfg.RemoteCache, tel)
		st.Requests += data.requests
		st.Misses += data.misses
		st.HitCache += data.hitCache
		st.HitSub += data.hitSub
		load := data.missLoad + time.Duration(float64(data.hitLoad)/w)

		// --- Preprocessing + Computation (forward/backward on the real
		// learner; virtual costs from the model profile).
		bw.join()
		fr := mlp.Forward(data.x, data.labels)
		fb := make([]policy.Feedback, len(data.served))
		for i, id := range data.served {
			fb[i] = policy.Feedback{
				ID:        id,
				Loss:      fr.Losses[i],
				Embedding: fr.Embeddings[i],
			}
			lossSum += fr.Losses[i]
			lossN++
		}
		weights := pol.BackpropWeights(fb)
		bw.start(mlp, weights)

		backward := cfg.Model.BackwardCost
		if frac := keptFraction(weights); frac < 1 {
			backward = time.Duration(float64(backward) * frac)
		}
		compute := cfg.Model.ForwardCost + backward

		// --- IS stage (graph scoring) with Fig 12 pipeline overlap.
		pol.OnBatchEnd(epoch, fb)
		var visibleIS time.Duration
		if pol.HasGraphIS() {
			visibleIS = cfg.Model.ISCost
			if cfg.PipelineIS {
				budget := backward
				if cfg.Model.DeepOverlap {
					// Long-IS models additionally overlap with the next
					// batch's Stage 1 (approximated by this batch's).
					budget += load + cfg.Model.ForwardCost
				}
				visibleIS = simclock.Overlap2(cfg.Model.ISCost, budget)
			}
		}

		comm := time.Duration(0)
		if cfg.Workers > 1 {
			comm = time.Duration(float64(commCost) * float64(cfg.Workers-1))
		}

		// Wall-clock charge: loading is shared-bottleneck, compute stages
		// divide across workers, communication is added per batch round.
		// With the DataLoader prefetch (default), loading of the next batch
		// overlaps this batch's preprocessing and compute, so the visible
		// cost is the maximum of the two tracks; serial mode sums them.
		preproc := preprocessCost / time.Duration(cfg.Workers)
		gpuTrack := preproc + time.Duration(float64(compute+visibleIS)/w)
		var batchWall time.Duration
		if cfg.SerialLoading {
			batchWall = load + gpuTrack + comm
		} else {
			batchWall = max(load, gpuTrack) + comm
		}

		st.LoadTime += load
		st.PreprocTime += preproc
		st.ComputeTime += time.Duration(float64(compute) / w)
		st.ISTime += time.Duration(float64(visibleIS) / w)
		st.CommTime += comm
		clock.Advance(batchWall)
	}

	st.EpochTime = span.Elapsed()
	if lossN > 0 {
		st.TrainLoss = lossSum / float64(lossN)
	}
	return st
}

// keptFraction returns the fraction of batch samples with non-zero backprop
// weight (1 when weights is nil).
func keptFraction(weights []float64) float64 {
	if weights == nil {
		return 1
	}
	kept := 0
	for _, w := range weights {
		if w != 0 {
			kept++
		}
	}
	if len(weights) == 0 {
		return 1
	}
	return float64(kept) / float64(len(weights))
}

// batchTensors materialises the feature matrix and label slice for the
// served sample IDs.
func batchTensors(ds *dataset.Dataset, ids []int) (*tensor.Matrix, []int) {
	dim := ds.Config.Dim
	x := tensor.New(len(ids), dim)
	labels := make([]int, len(ids))
	for i, id := range ids {
		copy(x.Row(i), ds.Features[id])
		labels[i] = ds.Labels[id]
	}
	return x, labels
}
