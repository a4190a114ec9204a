package spidercache

import (
	"fmt"

	"spidercache/internal/elastic"
	"spidercache/internal/experiments"
	"spidercache/internal/nn"
	"spidercache/internal/telemetry"
	"spidercache/internal/trainer"
)

// Option configures a TrainWith run. An applied Option is always an explicit
// setting: WithCacheFraction(0) really trains without a cache, WithSeed(0)
// really seeds with 0, and an out-of-range value such as WithEpochs(0) is
// rejected with a descriptive error instead of being reinterpreted.
type Option func(*settings)

// settings is one run's configuration. TrainWith starts it at the defaults
// and lets each Option overwrite a field.
type settings struct {
	policy          string
	model           string
	epochs          int
	batchSize       int
	cacheFraction   float64
	workers         int
	rStart, rEnd    float64
	disablePipeline bool
	metrics         *telemetry.Registry
	seed            uint64
}

// WithPolicy selects the caching/sampling policy (one of the Policy*
// constants; default PolicySpiderCache).
func WithPolicy(name string) Option {
	return func(s *settings) { s.policy = name }
}

// WithModel selects the model cost profile by name (default "ResNet18").
func WithModel(name string) Option {
	return func(s *settings) { s.model = name }
}

// WithEpochs sets the training length (default 30; must be >= 1).
func WithEpochs(n int) Option {
	return func(s *settings) { s.epochs = n }
}

// WithBatchSize sets the mini-batch size (default 64; must be >= 1).
func WithBatchSize(n int) Option {
	return func(s *settings) { s.batchSize = n }
}

// WithCacheFraction sizes the cache as a fraction of the dataset (default
// 0.2, the paper's end-to-end setting; must be in [0, 1]). An explicit 0
// trains with no cache at all.
func WithCacheFraction(f float64) Option {
	return func(s *settings) { s.cacheFraction = f }
}

// WithWorkers sets the simulated data-parallel GPU count (default 1; must
// be >= 1).
func WithWorkers(n int) Option {
	return func(s *settings) { s.workers = n }
}

// WithSeed sets the run's random seed (default 42). Every value, 0
// included, is used as given.
func WithSeed(seed uint64) Option {
	return func(s *settings) { s.seed = seed }
}

// WithElasticRange overrides SpiderCache's elastic imp-ratio endpoints
// (paper defaults 0.90 / 0.80; want 0 < rStart <= 1 and 0 <= rEnd <=
// rStart). rEnd = rStart freezes the imp-ratio: Table 6's static split.
func WithElasticRange(rStart, rEnd float64) Option {
	return func(s *settings) { s.rStart, s.rEnd = rStart, rEnd }
}

// WithoutPipeline charges the full IS cost on the critical path (the
// pipeline-overlap ablation).
func WithoutPipeline() Option {
	return func(s *settings) { s.disablePipeline = true }
}

// WithMetrics attaches a telemetry registry: the run records per-tier
// lookup counters, simulated fetch/compute latency histograms and the
// elastic imp_ratio/σ trajectory into it. The same registry may be shared
// across runs (counters accumulate) or served live by a kvserver METRICS
// endpoint.
func WithMetrics(reg *telemetry.Registry) Option {
	return func(s *settings) { s.metrics = reg }
}

// TrainWith runs one training configuration and returns its full record.
// Settings no Option touches keep their defaults: PolicySpiderCache,
// ResNet18, 30 epochs, batch 64, cache fraction 0.2, 1 worker, seed 42,
// elastic range 0.90 / 0.80.
// Out-of-range values are rejected with descriptive errors. The run uses up
// to GOMAXPROCS cores, and its result does not depend on how many.
func TrainWith(ds *Dataset, opts ...Option) (*Result, error) {
	s := settings{
		policy:        PolicySpiderCache,
		model:         "ResNet18",
		epochs:        30,
		batchSize:     64,
		cacheFraction: 0.2,
		workers:       1,
		rStart:        0.90,
		rEnd:          0.80,
		seed:          42,
	}
	for _, opt := range opts {
		if opt != nil {
			opt(&s)
		}
	}
	return train(ds, s)
}

// train range-checks s and runs it.
func train(ds *Dataset, s settings) (*Result, error) {
	switch {
	case ds == nil:
		return nil, fmt.Errorf("spidercache: TrainWith requires a dataset")
	case s.epochs < 1:
		return nil, fmt.Errorf("spidercache: WithEpochs(%d): epochs must be >= 1", s.epochs)
	case s.batchSize < 1:
		return nil, fmt.Errorf("spidercache: WithBatchSize(%d): batch size must be >= 1", s.batchSize)
	case s.workers < 1:
		return nil, fmt.Errorf("spidercache: WithWorkers(%d): workers must be >= 1", s.workers)
	case !(s.cacheFraction >= 0 && s.cacheFraction <= 1): // NaN fails too
		return nil, fmt.Errorf("spidercache: cache fraction %v: want a fraction in [0, 1]", s.cacheFraction)
	}
	if err := (elastic.Config{RStart: s.rStart, REnd: s.rEnd}).Validate(); err != nil {
		return nil, fmt.Errorf("spidercache: WithElasticRange(%v, %v): %w", s.rStart, s.rEnd, err)
	}
	if err := ValidatePolicy(s.policy); err != nil {
		return nil, err
	}
	model, err := nn.ProfileByName(s.model)
	if err != nil {
		return nil, err
	}
	pol, err := experiments.BuildPolicy(s.policy, experiments.PolicyParams{
		Dataset:  ds.ds,
		Capacity: int(float64(ds.Len()) * s.cacheFraction),
		Epochs:   s.epochs,
		Seed:     s.seed,
		RStart:   s.rStart,
		REnd:     s.rEnd,
		Metrics:  s.metrics,
	})
	if err != nil {
		return nil, err
	}
	res, err := trainer.Run(trainer.Config{
		Dataset:    ds.ds,
		Model:      model,
		Epochs:     s.epochs,
		BatchSize:  s.batchSize,
		Workers:    s.workers,
		PipelineIS: !s.disablePipeline,
		Metrics:    s.metrics,
		Seed:       s.seed,
	}, pol)
	if err != nil {
		return nil, err
	}
	return convertResult(res), nil
}
