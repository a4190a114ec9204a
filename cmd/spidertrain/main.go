// Command spidertrain runs one (dataset, model, policy) training
// configuration and prints per-epoch metrics plus a run summary.
//
// Usage:
//
//	spidertrain -dataset cifar10 -model ResNet18 -policy spider \
//	    -epochs 30 -cache 0.2 -scale 1.0 -workers 1 -seed 42
//
// The run uses up to GOMAXPROCS cores; its output is the same at any value.
//
// Observability:
//
//	spidertrain -metrics    # dump telemetry at exit (Prometheus text, p50/p95/p99)
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"spidercache/internal/dataset"
	"spidercache/internal/elastic"
	"spidercache/internal/experiments"
	"spidercache/internal/nn"
	"spidercache/internal/telemetry"
	"spidercache/internal/trainer"
)

func main() {
	var models []string
	for _, p := range nn.AllProfiles() {
		models = append(models, p.Name)
	}
	var (
		dsName    = flag.String("dataset", "cifar10", "dataset preset: cifar10, cifar100, imagenet")
		modelName = flag.String("model", "ResNet18", "model profile: "+strings.Join(models, ", "))
		polName   = flag.String("policy", "spider", "policy: "+strings.Join(experiments.PolicyNames(), ", "))
		epochs    = flag.Int("epochs", 30, "training epochs")
		batch     = flag.Int("batch", 64, "mini-batch size")
		cache     = flag.Float64("cache", 0.2, "cache size as a fraction of the dataset")
		scale     = flag.Float64("scale", 1.0, "dataset size multiplier")
		workers   = flag.Int("workers", 1, "simulated data-parallel GPU count")
		seed      = flag.Uint64("seed", 42, "random seed")
		rStart    = flag.Float64("rstart", 0.90, "SpiderCache initial imp-ratio")
		rEnd      = flag.Float64("rend", 0.80, "SpiderCache final imp-ratio (= -rstart for a static split)")
		noPipe    = flag.Bool("no-pipeline", false, "disable IS pipeline overlap")
		quiet     = flag.Bool("quiet", false, "print only the summary line")
		csvOut    = flag.String("csv", "", "write per-epoch records to this CSV file")

		metricsDump = flag.Bool("metrics", false, "print the telemetry snapshot (Prometheus text) at exit")
	)
	flag.Parse()

	// The policy, cache fraction, elastic range and model are checked
	// before the dataset is built; epochs, batch and workers by trainer.Run.
	// The elastic range is checked for every policy, not only the ones
	// that read it.
	if err := experiments.ValidatePolicy(*polName); err != nil {
		fatal(err)
	}
	if !(*cache >= 0 && *cache <= 1) { // NaN fails too
		fatal(fmt.Errorf("-cache %v: want a fraction in [0, 1]", *cache))
	}
	if err := (elastic.Config{RStart: *rStart, REnd: *rEnd}).Validate(); err != nil {
		fatal(err)
	}
	model, err := nn.ProfileByName(*modelName)
	if err != nil {
		fatal(err)
	}
	ds, err := buildDataset(*dsName, *scale, *seed)
	if err != nil {
		fatal(err)
	}

	var reg *telemetry.Registry
	if *metricsDump {
		reg = telemetry.NewRegistry()
	}
	pol, err := experiments.BuildPolicy(*polName, experiments.PolicyParams{
		Dataset:  ds,
		Capacity: int(float64(ds.Len()) * *cache),
		Epochs:   *epochs,
		Seed:     *seed,
		RStart:   *rStart,
		REnd:     *rEnd,
		Metrics:  reg,
	})
	if err != nil {
		fatal(err)
	}
	res, err := trainer.Run(trainer.Config{
		Dataset:    ds,
		Model:      model,
		Epochs:     *epochs,
		BatchSize:  *batch,
		Workers:    *workers,
		PipelineIS: !*noPipe,
		Metrics:    reg,
		Seed:       *seed,
	}, pol)
	if err != nil {
		fatal(err)
	}

	if !*quiet {
		fmt.Printf("%-6s %8s %8s %8s %9s %10s %9s %9s\n",
			"epoch", "hit%", "sub%", "acc%", "loss", "time", "sigma", "impRatio")
		for _, e := range res.Epochs {
			fmt.Printf("%-6d %8.2f %8.2f %8.2f %9.4f %10s %9.4f %9.3f\n",
				e.Epoch+1, e.HitRatio()*100, subRatio(e)*100, e.Accuracy*100,
				e.TrainLoss, e.EpochTime.Round(time.Millisecond), e.ScoreStd, e.ImpRatio)
		}
	}
	if *csvOut != "" {
		if err := writeCSV(*csvOut, res); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("summary policy=%s model=%s dataset=%s epochs=%d avgHit=%.2f%% bestAcc=%.2f%% finalAcc=%.2f%% totalTime=%s\n",
		res.Policy, res.Model, res.Dataset, len(res.Epochs),
		res.AvgHitRatio()*100, res.BestAcc*100, res.FinalAcc*100,
		res.TotalTime.Round(time.Millisecond))

	if *metricsDump {
		fmt.Println("--- telemetry snapshot (Prometheus text exposition) ---")
		if err := reg.WritePrometheus(os.Stdout); err != nil {
			fatal(err)
		}
	}
}

func buildDataset(name string, scale float64, seed uint64) (*dataset.Dataset, error) {
	switch strings.ToLower(name) {
	case "cifar10":
		return dataset.New(dataset.CIFAR10Like(scale, seed))
	case "cifar100":
		return dataset.New(dataset.CIFAR100Like(scale, seed))
	case "imagenet":
		return dataset.New(dataset.ImageNetLike(scale, seed))
	default:
		return nil, fmt.Errorf("unknown dataset %q (want cifar10, cifar100 or imagenet)", name)
	}
}

// subRatio returns the share of the epoch's requests served by a
// substitute.
func subRatio(e trainer.EpochStats) float64 {
	if e.Requests == 0 {
		return 0
	}
	return float64(e.HitSub) / float64(e.Requests)
}

// writeCSV writes the run's per-epoch records to path: a comment line
// naming the run, a header, and one line per epoch.
func writeCSV(path string, res *trainer.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintf(bw, "# policy=%s model=%s dataset=%s\n", res.Policy, res.Model, res.Dataset)
	bw.WriteString("epoch,hit_ratio,sub_ratio,accuracy,train_loss,epoch_ms,score_std,imp_ratio\n")
	for _, e := range res.Epochs {
		fmt.Fprintf(bw, "%d,%.6f,%.6f,%.6f,%.6f,%d,%.6f,%.6f\n",
			e.Epoch, e.HitRatio(), subRatio(e), e.Accuracy, e.TrainLoss,
			e.EpochTime.Milliseconds(), e.ScoreStd, e.ImpRatio)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "spidertrain:", err)
	os.Exit(1)
}
