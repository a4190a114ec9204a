// Package spidercache is the public API of this repository: a reproduction
// of "SpiderCache: Semantic-Aware Caching Strategy for DNN Training"
// (ICPP 2025) on a fully simulated, single-binary substrate.
//
// The package exposes three entry points:
//
//   - NewDataset / presets: deterministic synthetic training workloads that
//     stand in for CIFAR-10, CIFAR-100 and ImageNet.
//   - Train: run one (dataset, model, policy) training configuration —
//     SpiderCache or any of the paper's baselines — and receive per-epoch
//     hit ratios, simulated times, accuracies and elastic-manager state.
//   - RenderExperiment / Experiments: regenerate any table or figure of
//     the paper's evaluation.
//
// See DESIGN.md for the architecture and EXPERIMENTS.md for paper-vs-
// measured results.
package spidercache

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"time"

	"spidercache/internal/dataset"
	"spidercache/internal/experiments"
	"spidercache/internal/nn"
	"spidercache/internal/telemetry"
	"spidercache/internal/tensor"
	"spidercache/internal/trainer"
)

// Policy names accepted by TrainConfig.Policy.
const (
	PolicyBaseline       = "baseline"   // LRU cache + random sampling
	PolicyLFU            = "lfu"        // LFU cache + random sampling
	PolicyCoorDL         = "coordl"     // static MinIO cache + random sampling
	PolicySHADE          = "shade"      // loss-based IS + importance cache
	PolicyICacheImp      = "icache-imp" // iCache, importance region only
	PolicyICache         = "icache"     // full iCache with random replacement
	PolicySpiderCacheImp = "spider-imp" // SpiderCache, Importance Cache only
	PolicySpiderCache    = "spider"     // full SpiderCache
)

// Policies lists every accepted policy name in evaluation order.
func Policies() []string { return experiments.PolicyNames() }

// ValidatePolicy reports nil when name is one of the Policy* constants, or
// a descriptive error listing every accepted name. The Policy* constants
// and Policies() are the single source of truth; Train rejects unknown
// names with this error before building anything.
func ValidatePolicy(name string) error {
	if err := experiments.ValidatePolicy(name); err != nil {
		return fmt.Errorf("spidercache: %w", err)
	}
	return nil
}

// Models lists the supported model cost profiles.
func Models() []string {
	ps := nn.AllProfiles()
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name
	}
	return out
}

// Dataset is an opaque handle to a synthetic training workload.
type Dataset struct {
	ds *dataset.Dataset
}

// Name returns the dataset's preset name.
func (d *Dataset) Name() string { return d.ds.Config.Name }

// Len returns the number of training samples.
func (d *Dataset) Len() int { return d.ds.Len() }

// Classes returns the number of classes.
func (d *Dataset) Classes() int { return d.ds.Config.Classes }

// TotalBytes returns the summed payload size of the training set.
func (d *Dataset) TotalBytes() int64 { return d.ds.TotalBytes() }

// NewCIFAR10 builds the CIFAR-10-like workload. scale multiplies the sample
// counts (1.0 = repository default).
func NewCIFAR10(scale float64, seed uint64) (*Dataset, error) {
	return newDataset(dataset.CIFAR10Like(scale, seed))
}

// NewCIFAR100 builds the CIFAR-100-like workload.
func NewCIFAR100(scale float64, seed uint64) (*Dataset, error) {
	return newDataset(dataset.CIFAR100Like(scale, seed))
}

// NewImageNet builds the ImageNet-like workload (more classes, larger
// payloads).
func NewImageNet(scale float64, seed uint64) (*Dataset, error) {
	return newDataset(dataset.ImageNetLike(scale, seed))
}

func newDataset(cfg dataset.Config) (*Dataset, error) {
	ds, err := dataset.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Dataset{ds: ds}, nil
}

// TrainConfig describes one training run through the public API.
type TrainConfig struct {
	Dataset *Dataset
	// Policy is one of the Policy* constants (default: PolicySpiderCache).
	Policy string
	// Model is a profile name from Models() (default: "ResNet18").
	Model string
	// Epochs to train (default 30).
	Epochs int
	// BatchSize per mini-batch (default 64).
	BatchSize int
	// CacheFraction sizes the cache as a fraction of the dataset
	// (default 0.2, the paper's end-to-end setting).
	CacheFraction float64
	// Workers simulates data-parallel GPUs (default 1).
	Workers int
	// RStart / REnd override SpiderCache's elastic imp-ratio endpoints
	// (defaults 0.90 / 0.80, the paper's recommendation).
	RStart, REnd float64
	// StaticRatio freezes the imp-ratio at RStart (Table 6's static mode).
	StaticRatio bool
	// DisablePipeline charges the full IS cost on the critical path.
	DisablePipeline bool
	// SerialLoading disables the DataLoader prefetch overlap, charging
	// loading and compute sequentially (stall accounting).
	SerialLoading bool
	// Threads caps real CPU parallelism (tensor kernels and SpiderCache
	// batch scoring): 0 keeps the defaults (all cores), 1 forces serial
	// execution. Parallel and serial runs produce identical numbers; this
	// only trades wall-clock for cores. Distinct from Workers, which
	// simulates GPUs inside the cost model.
	Threads int
	// Metrics receives live serving-path and cache telemetry (per-tier
	// lookup counters, fetch-latency histograms, elastic imp_ratio/σ
	// gauges); nil disables recording. See internal/telemetry and the
	// README's Observability section for the exposition formats.
	Metrics *telemetry.Registry
	Seed    uint64
}

func (c *TrainConfig) fillDefaults() error {
	if c.Dataset == nil {
		return fmt.Errorf("spidercache: TrainConfig.Dataset must be set")
	}
	if c.Policy == "" {
		c.Policy = PolicySpiderCache
	}
	if c.Model == "" {
		c.Model = "ResNet18"
	}
	if c.Epochs == 0 {
		c.Epochs = 30
	}
	if c.BatchSize == 0 {
		c.BatchSize = 64
	}
	if c.CacheFraction == 0 {
		c.CacheFraction = 0.2
	}
	if c.Workers == 0 {
		c.Workers = 1
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return nil
}

// EpochStats is the per-epoch record of a training run.
type EpochStats struct {
	Epoch     int
	HitRatio  float64       // (cache + substitute hits) / requests
	SubRatio  float64       // substitute hits / requests
	Accuracy  float64       // held-out Top-1 after the epoch
	TrainLoss float64       // mean training loss
	EpochTime time.Duration // simulated wall time
	ScoreStd  float64       // σ of importance scores (SpiderCache only)
	ImpRatio  float64       // Importance Cache share (SpiderCache only)
}

// Result is the outcome of a training run.
type Result struct {
	Policy    string
	Model     string
	Dataset   string
	Epochs    []EpochStats
	TotalTime time.Duration // simulated end-to-end training time
	FinalAcc  float64
	BestAcc   float64
}

// AvgHitRatio returns the mean per-epoch hit ratio.
func (r *Result) AvgHitRatio() float64 {
	if len(r.Epochs) == 0 {
		return 0
	}
	var s float64
	for _, e := range r.Epochs {
		s += e.HitRatio
	}
	return s / float64(len(r.Epochs))
}

// WriteCSV serialises the run's per-epoch records (header + one line per
// epoch) for external plotting.
func (r *Result) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# policy=%s model=%s dataset=%s\n", r.Policy, r.Model, r.Dataset); err != nil {
		return err
	}
	if _, err := bw.WriteString("epoch,hit_ratio,sub_ratio,accuracy,train_loss,epoch_ms,score_std,imp_ratio\n"); err != nil {
		return err
	}
	for _, e := range r.Epochs {
		if _, err := fmt.Fprintf(bw, "%d,%.6f,%.6f,%.6f,%.6f,%d,%.6f,%.6f\n",
			e.Epoch, e.HitRatio, e.SubRatio, e.Accuracy, e.TrainLoss,
			e.EpochTime.Milliseconds(), e.ScoreStd, e.ImpRatio); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Train runs one training configuration and returns its full record.
//
// Zero-valued fields of cfg take repository defaults (Epochs 30,
// CacheFraction 0.2, ...), which makes a genuine zero unexpressible; use
// TrainWith and functional options when that distinction matters.
func Train(cfg TrainConfig) (*Result, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	return train(cfg)
}

// train runs a fully resolved configuration. It applies no defaults, and it
// makes the range checks that Train and TrainWith share.
func train(cfg TrainConfig) (*Result, error) {
	if cfg.Dataset == nil {
		return nil, fmt.Errorf("spidercache: TrainConfig.Dataset must be set")
	}
	if cfg.CacheFraction < 0 || cfg.CacheFraction > 1 {
		return nil, fmt.Errorf("spidercache: cache fraction %v: want a fraction in [0, 1]", cfg.CacheFraction)
	}
	if cfg.Threads < 0 {
		return nil, fmt.Errorf("spidercache: threads %d: want >= 0 (0 = all cores)", cfg.Threads)
	}
	if err := ValidatePolicy(cfg.Policy); err != nil {
		return nil, err
	}
	model, err := nn.ProfileByName(cfg.Model)
	if err != nil {
		return nil, err
	}
	if cfg.Threads > 0 {
		tensor.SetWorkers(cfg.Threads)
	}
	capacity := int(float64(cfg.Dataset.Len()) * cfg.CacheFraction)
	pol, err := experiments.BuildPolicy(cfg.Policy, experiments.PolicyParams{
		Dataset:        cfg.Dataset.ds,
		Capacity:       capacity,
		Epochs:         cfg.Epochs,
		Seed:           cfg.Seed,
		RStart:         cfg.RStart,
		REnd:           cfg.REnd,
		DisableElastic: cfg.StaticRatio,
		Metrics:        cfg.Metrics,
		Workers:        cfg.Threads,
	})
	if err != nil {
		return nil, err
	}
	tc := trainer.Config{
		Dataset:       cfg.Dataset.ds,
		Model:         model,
		Epochs:        cfg.Epochs,
		BatchSize:     cfg.BatchSize,
		Workers:       cfg.Workers,
		PipelineIS:    !cfg.DisablePipeline,
		SerialLoading: cfg.SerialLoading,
		Metrics:       cfg.Metrics,
		Seed:          cfg.Seed,
	}
	res, err := trainer.Run(tc, pol)
	if err != nil {
		return nil, err
	}
	return convertResult(res), nil
}

func convertResult(res *trainer.Result) *Result {
	out := &Result{
		Policy:    res.Policy,
		Model:     res.Model,
		Dataset:   res.Dataset,
		TotalTime: res.TotalTime,
		FinalAcc:  res.FinalAcc,
		BestAcc:   res.BestAcc,
	}
	for _, e := range res.Epochs {
		sub := 0.0
		if e.Requests > 0 {
			sub = float64(e.HitSub) / float64(e.Requests)
		}
		out.Epochs = append(out.Epochs, EpochStats{
			Epoch:     e.Epoch,
			HitRatio:  e.HitRatio(),
			SubRatio:  sub,
			Accuracy:  e.Accuracy,
			TrainLoss: e.TrainLoss,
			EpochTime: e.EpochTime,
			ScoreStd:  e.ScoreStd,
			ImpRatio:  e.ImpRatio,
		})
	}
	return out
}

// Experiments lists the regenerable paper tables and figures.
func Experiments() []string { return experiments.List() }

// ExperimentReport is a completed experiment, renderable as an aligned text
// table or as CSV.
type ExperimentReport struct {
	rep *experiments.Report
}

// ID returns the canonical experiment id (aliases resolved).
func (r *ExperimentReport) ID() string { return r.rep.ID }

// Text renders the report as aligned tables with notes.
func (r *ExperimentReport) Text() string { return r.rep.String() }

// CSV renders every table of the report as CSV blocks.
func (r *ExperimentReport) CSV() string { return r.rep.CSV() }

// GetExperiment regenerates one paper table/figure. scale multiplies dataset
// sizes (1.0 = default); epochs overrides the experiment's default when
// positive.
func GetExperiment(id string, scale float64, epochs int, seed uint64) (*ExperimentReport, error) {
	rep, err := experiments.Run(id, experiments.Options{Scale: scale, EpochOverride: epochs, Seed: seed})
	if err != nil {
		return nil, err
	}
	return &ExperimentReport{rep: rep}, nil
}

// Format selects the rendering of an experiment report.
type Format int

// Report formats accepted by RenderExperiment.
const (
	// FormatText renders aligned tables with notes (terminal output).
	FormatText Format = iota
	// FormatCSV renders every table as CSV blocks (machine-readable).
	FormatCSV
)

// String returns "text" or "csv".
func (f Format) String() string {
	switch f {
	case FormatText:
		return "text"
	case FormatCSV:
		return "csv"
	default:
		return fmt.Sprintf("Format(%d)", int(f))
	}
}

// ParseFormat resolves "text" or "csv" (case-insensitive) to a Format.
func ParseFormat(s string) (Format, error) {
	switch strings.ToLower(s) {
	case "text", "":
		return FormatText, nil
	case "csv":
		return FormatCSV, nil
	default:
		return 0, fmt.Errorf("spidercache: unknown format %q (want text or csv)", s)
	}
}

// RenderExperiment regenerates one paper table/figure and returns the
// report rendered in the requested format. See GetExperiment for a handle
// that can render both without re-running.
func RenderExperiment(id string, scale float64, epochs int, seed uint64, format Format) (string, error) {
	rep, err := GetExperiment(id, scale, epochs, seed)
	if err != nil {
		return "", err
	}
	switch format {
	case FormatText:
		return rep.Text(), nil
	case FormatCSV:
		return rep.CSV(), nil
	default:
		return "", fmt.Errorf("spidercache: unknown format %v", format)
	}
}
