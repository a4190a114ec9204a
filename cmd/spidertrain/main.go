// Command spidertrain runs one (dataset, model, policy) training
// configuration and prints per-epoch metrics plus a run summary.
//
// Usage:
//
//	spidertrain -dataset cifar10 -model ResNet18 -policy spider \
//	    -epochs 30 -cache 0.2 -scale 1.0 -workers 1 -seed 42
//
// Observability:
//
//	spidertrain -metrics                  # dump telemetry at exit (Prometheus text)
//	spidertrain -metrics-json run.json    # JSON snapshot with p50/p95/p99
//	spidertrain -metrics-listen :9090     # serve METRICS/STATS over TCP during the run
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"strings"
	"time"

	"spidercache"
	"spidercache/internal/kvserver"
	"spidercache/internal/telemetry"
)

func main() {
	var (
		dsName  = flag.String("dataset", "cifar10", "dataset preset: cifar10, cifar100, imagenet")
		model   = flag.String("model", "ResNet18", "model profile: "+strings.Join(spidercache.Models(), ", "))
		policy  = flag.String("policy", "spider", "policy: "+strings.Join(spidercache.Policies(), ", "))
		epochs  = flag.Int("epochs", 30, "training epochs")
		batch   = flag.Int("batch", 64, "mini-batch size")
		cache   = flag.Float64("cache", 0.2, "cache size as a fraction of the dataset")
		scale   = flag.Float64("scale", 1.0, "dataset size multiplier")
		workers = flag.Int("workers", 1, "simulated data-parallel GPU count")
		threads = flag.Int("threads", 0, "CPU threads for tensor kernels and batch scoring (0 = all cores, 1 = serial)")
		prefet  = flag.Bool("prefetch", false, "serve the next batch on a goroutine while the current one computes")
		seed    = flag.Uint64("seed", 42, "random seed")
		rStart  = flag.Float64("rstart", 0.90, "SpiderCache initial imp-ratio")
		rEnd    = flag.Float64("rend", 0.80, "SpiderCache final imp-ratio")
		static  = flag.Bool("static-ratio", false, "freeze the imp-ratio (disable the elastic manager)")
		noPipe  = flag.Bool("no-pipeline", false, "disable IS pipeline overlap")
		quiet   = flag.Bool("quiet", false, "print only the summary line")
		csvOut  = flag.String("csv", "", "write per-epoch records to this CSV file")

		metricsDump   = flag.Bool("metrics", false, "print the telemetry snapshot (Prometheus text) at exit")
		metricsJSON   = flag.String("metrics-json", "", "write the telemetry snapshot as JSON to this file")
		metricsListen = flag.String("metrics-listen", "", "serve the live telemetry registry over TCP (kvserver METRICS verb) on this address")
	)
	flag.Parse()

	if err := spidercache.ValidatePolicy(*policy); err != nil {
		fatal(err)
	}
	ds, err := buildDataset(*dsName, *scale, *seed)
	if err != nil {
		fatal(err)
	}

	var reg *telemetry.Registry
	if *metricsDump || *metricsJSON != "" || *metricsListen != "" {
		reg = telemetry.NewRegistry()
	}
	if *metricsListen != "" {
		ln, err := net.Listen("tcp", *metricsListen)
		if err != nil {
			fatal(err)
		}
		cfg := kvserver.DefaultConfig()
		cfg.Capacity = 1
		srv, err := kvserver.Serve(ln, cfg, reg, nil)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "spidertrain: serving METRICS on %s\n", srv.Addr())
	}

	opts := []spidercache.Option{
		spidercache.WithPolicy(*policy),
		spidercache.WithModel(*model),
		spidercache.WithEpochs(*epochs),
		spidercache.WithBatchSize(*batch),
		spidercache.WithCacheFraction(*cache),
		spidercache.WithWorkers(*workers),
		spidercache.WithSeed(*seed),
		spidercache.WithElasticRange(*rStart, *rEnd),
		spidercache.WithMetrics(reg),
	}
	if *threads > 0 {
		opts = append(opts, spidercache.WithThreads(*threads))
	}
	if *prefet {
		opts = append(opts, spidercache.WithPrefetch())
	}
	if *static {
		opts = append(opts, spidercache.WithStaticRatio())
	}
	if *noPipe {
		opts = append(opts, spidercache.WithoutPipeline())
	}
	res, err := spidercache.TrainWith(ds, opts...)
	if err != nil {
		fatal(err)
	}

	if !*quiet {
		fmt.Printf("%-6s %8s %8s %8s %9s %10s %9s %9s\n",
			"epoch", "hit%", "sub%", "acc%", "loss", "time", "sigma", "impRatio")
		for _, e := range res.Epochs {
			fmt.Printf("%-6d %8.2f %8.2f %8.2f %9.4f %10s %9.4f %9.3f\n",
				e.Epoch+1, e.HitRatio*100, e.SubRatio*100, e.Accuracy*100,
				e.TrainLoss, e.EpochTime.Round(time.Millisecond), e.ScoreStd, e.ImpRatio)
		}
	}
	if *csvOut != "" {
		f, err := os.Create(*csvOut)
		if err != nil {
			fatal(err)
		}
		if err := res.WriteCSV(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("summary policy=%s model=%s dataset=%s epochs=%d avgHit=%.2f%% bestAcc=%.2f%% finalAcc=%.2f%% totalTime=%s\n",
		res.Policy, res.Model, res.Dataset, len(res.Epochs),
		res.AvgHitRatio()*100, res.BestAcc*100, res.FinalAcc*100,
		res.TotalTime.Round(time.Millisecond))

	if *metricsJSON != "" {
		f, err := os.Create(*metricsJSON)
		if err != nil {
			fatal(err)
		}
		if err := reg.WriteJSON(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	if *metricsDump {
		fmt.Println("--- telemetry snapshot (Prometheus text exposition) ---")
		if err := reg.WritePrometheus(os.Stdout); err != nil {
			fatal(err)
		}
	}
}

func buildDataset(name string, scale float64, seed uint64) (*spidercache.Dataset, error) {
	switch strings.ToLower(name) {
	case "cifar10":
		return spidercache.NewCIFAR10(scale, seed)
	case "cifar100":
		return spidercache.NewCIFAR100(scale, seed)
	case "imagenet":
		return spidercache.NewImageNet(scale, seed)
	default:
		return nil, fmt.Errorf("unknown dataset %q (want cifar10, cifar100 or imagenet)", name)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "spidertrain:", err)
	os.Exit(1)
}
