// Quickstart: train a model with SpiderCache on the CIFAR10-like workload
// and compare against the LRU baseline — the repository's 60-second tour.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"spidercache/internal/dataset"
	"spidercache/internal/experiments"
	"spidercache/internal/nn"
	"spidercache/internal/trainer"
)

func main() {
	ds, err := dataset.New(dataset.CIFAR10Like(0.5, 42))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset %s: %d samples, %d classes, %.1f MiB\n\n",
		ds.Config.Name, ds.Len(), ds.Config.Classes, float64(ds.TotalBytes())/(1<<20))

	const epochs = 15
	var results []*trainer.Result
	for _, name := range []string{"spider", "baseline"} {
		pol, err := experiments.BuildPolicy(name, experiments.PolicyParams{
			Dataset: ds, Capacity: int(float64(ds.Len()) * 0.2), Epochs: epochs, Seed: 42,
		})
		if err != nil {
			log.Fatal(err)
		}
		res, err := trainer.Run(trainer.Config{
			Dataset: ds, Model: nn.ResNet18, Epochs: epochs,
			BatchSize: 64, Workers: 1, PipelineIS: true, Seed: 42,
		}, pol)
		if err != nil {
			log.Fatal(err)
		}
		results = append(results, res)
		fmt.Printf("%-12s hit=%5.1f%%  bestAcc=%5.1f%%  simulated training time=%s\n",
			res.Policy, res.AvgHitRatio()*100, res.BestAcc*100,
			res.TotalTime.Round(time.Millisecond))
	}

	spider, base := results[0], results[1]
	fmt.Printf("\nSpiderCache vs Baseline: %.1fx the hit ratio, %.2fx faster training\n",
		spider.AvgHitRatio()/base.AvgHitRatio(),
		float64(base.TotalTime)/float64(spider.TotalTime))
}
