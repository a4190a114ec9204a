package spidercache

import (
	"fmt"

	"spidercache/internal/telemetry"
)

// Option configures a TrainWith run. Options exist alongside TrainConfig
// because struct literals cannot distinguish "field left at zero" from
// "field explicitly set to zero": Train silently maps Epochs 0 to 30 and
// CacheFraction 0 to 0.2, so a genuinely cache-less or zero-epoch request
// is unexpressible there. An applied Option is always an explicit setting
// — WithCacheFraction(0) really trains without a cache, and WithEpochs(0)
// is rejected with a descriptive error instead of being reinterpreted.
type Option func(*trainSettings)

// trainSettings tracks which fields an Option explicitly set, so TrainWith
// only applies defaults to untouched ones.
type trainSettings struct {
	cfg TrainConfig

	epochsSet        bool
	batchSet         bool
	cacheFractionSet bool
	workersSet       bool
	seedSet          bool
	threadsSet       bool
}

// WithPolicy selects the caching/sampling policy (one of the Policy*
// constants; default PolicySpiderCache).
func WithPolicy(name string) Option {
	return func(s *trainSettings) { s.cfg.Policy = name }
}

// WithModel selects the model cost profile by name (default "ResNet18").
func WithModel(name string) Option {
	return func(s *trainSettings) { s.cfg.Model = name }
}

// WithEpochs sets the training length (default 30). Unlike
// TrainConfig.Epochs, an explicit 0 is an error, not "use the default".
func WithEpochs(n int) Option {
	return func(s *trainSettings) { s.cfg.Epochs = n; s.epochsSet = true }
}

// WithBatchSize sets the mini-batch size (default 64).
func WithBatchSize(n int) Option {
	return func(s *trainSettings) { s.cfg.BatchSize = n; s.batchSet = true }
}

// WithCacheFraction sizes the cache as a fraction of the dataset (default
// 0.2). An explicit 0 trains with no cache at all — the ablation Train's
// zero-value defaulting cannot express.
func WithCacheFraction(f float64) Option {
	return func(s *trainSettings) { s.cfg.CacheFraction = f; s.cacheFractionSet = true }
}

// WithWorkers sets the simulated data-parallel GPU count (default 1).
func WithWorkers(n int) Option {
	return func(s *trainSettings) { s.cfg.Workers = n; s.workersSet = true }
}

// WithSeed sets the run's random seed (default 42). An explicit 0 is kept,
// unlike TrainConfig.Seed's zero-means-42 defaulting.
func WithSeed(seed uint64) Option {
	return func(s *trainSettings) { s.cfg.Seed = seed; s.seedSet = true }
}

// WithElasticRange overrides SpiderCache's elastic imp-ratio endpoints
// (paper defaults 0.90 / 0.80).
func WithElasticRange(rStart, rEnd float64) Option {
	return func(s *trainSettings) { s.cfg.RStart, s.cfg.REnd = rStart, rEnd }
}

// WithStaticRatio freezes the imp-ratio at RStart (Table 6's static mode).
func WithStaticRatio() Option {
	return func(s *trainSettings) { s.cfg.StaticRatio = true }
}

// WithoutPipeline charges the full IS cost on the critical path (the
// pipeline-overlap ablation).
func WithoutPipeline() Option {
	return func(s *trainSettings) { s.cfg.DisablePipeline = true }
}

// WithSerialLoading disables the DataLoader prefetch overlap, charging
// loading and compute sequentially (stall accounting).
func WithSerialLoading() Option {
	return func(s *trainSettings) { s.cfg.SerialLoading = true }
}

// WithThreads caps real CPU parallelism for the run: tensor kernels and
// SpiderCache batch scoring use at most n OS threads. 1 forces serial
// execution; results are identical either way. Distinct from WithWorkers,
// which simulates GPUs inside the cost model.
func WithThreads(n int) Option {
	return func(s *trainSettings) { s.cfg.Threads = n; s.threadsSet = true }
}

// WithPrefetch overlaps the serving of the next batch (cache lookups, miss
// fetches, tensor build) with the current batch's forward pass on a host
// goroutine. Deterministic; see trainer.Config.Prefetch for the one-batch
// staleness caveat.
func WithPrefetch() Option {
	return func(s *trainSettings) { s.cfg.Prefetch = true }
}

// WithMetrics attaches a telemetry registry: the run records per-tier
// lookup counters, simulated fetch/compute latency histograms and the
// elastic imp_ratio/σ trajectory into it. The same registry may be shared
// across runs (counters accumulate) or served live by a kvserver METRICS
// endpoint.
func WithMetrics(reg *telemetry.Registry) Option {
	return func(s *trainSettings) { s.cfg.Metrics = reg }
}

// TrainWith runs one training configuration described by functional
// options. It behaves exactly like Train(TrainConfig{...}) for anything an
// Option does not touch, but explicit settings are never reinterpreted:
// invalid explicit values (Epochs 0, Workers 0) are rejected with
// descriptive errors rather than silently replaced by defaults.
func TrainWith(ds *Dataset, opts ...Option) (*Result, error) {
	if ds == nil {
		return nil, fmt.Errorf("spidercache: TrainWith requires a dataset")
	}
	s := trainSettings{cfg: TrainConfig{Dataset: ds}}
	for _, opt := range opts {
		if opt != nil {
			opt(&s)
		}
	}
	if s.cfg.Policy == "" {
		s.cfg.Policy = PolicySpiderCache
	}
	if s.cfg.Model == "" {
		s.cfg.Model = "ResNet18"
	}
	if !s.epochsSet {
		s.cfg.Epochs = 30
	}
	if !s.batchSet {
		s.cfg.BatchSize = 64
	}
	if !s.cacheFractionSet {
		s.cfg.CacheFraction = 0.2
	}
	if !s.workersSet {
		s.cfg.Workers = 1
	}
	if !s.seedSet {
		s.cfg.Seed = 42
	}
	if s.cfg.Epochs < 1 {
		return nil, fmt.Errorf("spidercache: WithEpochs(%d): epochs must be >= 1", s.cfg.Epochs)
	}
	if s.cfg.BatchSize < 1 {
		return nil, fmt.Errorf("spidercache: WithBatchSize(%d): batch size must be >= 1", s.cfg.BatchSize)
	}
	if s.cfg.Workers < 1 {
		return nil, fmt.Errorf("spidercache: WithWorkers(%d): workers must be >= 1", s.cfg.Workers)
	}
	if s.threadsSet && s.cfg.Threads < 1 {
		return nil, fmt.Errorf("spidercache: WithThreads(%d): threads must be >= 1", s.cfg.Threads)
	}
	return train(s.cfg)
}
