// Package spidercache is the public API of this repository: a reproduction
// of "SpiderCache: Semantic-Aware Caching Strategy for DNN Training"
// (ICPP 2025) on a fully simulated, single-binary substrate.
//
// The package exposes three entry points:
//
//   - NewCIFAR10 / NewCIFAR100 / NewImageNet: deterministic synthetic
//     training workloads that stand in for the paper's datasets.
//   - TrainWith: run one (dataset, model, policy) training configuration —
//     SpiderCache or any of the paper's baselines — and receive per-epoch
//     hit ratios, simulated times, accuracies and elastic-manager state.
//   - GetExperiment / Experiments: regenerate any table or figure of the
//     paper's evaluation, rendered as text or CSV.
//
// See DESIGN.md for the architecture and EXPERIMENTS.md for paper-vs-
// measured results.
package spidercache

import (
	"bufio"
	"fmt"
	"io"
	"time"

	"spidercache/internal/dataset"
	"spidercache/internal/experiments"
	"spidercache/internal/nn"
	"spidercache/internal/trainer"
)

// Policy names accepted by WithPolicy.
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
// and Policies() are the single source of truth; TrainWith rejects unknown
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
// sizes (1.0 = default) and must be positive; epochs overrides the
// experiment's default when positive (0 keeps it, negative is an error).
// Every seed, 0 included, is used as given.
func GetExperiment(id string, scale float64, epochs int, seed uint64) (*ExperimentReport, error) {
	rep, err := experiments.Run(id, experiments.Options{Scale: scale, EpochOverride: epochs, Seed: seed})
	if err != nil {
		return nil, err
	}
	return &ExperimentReport{rep: rep}, nil
}
