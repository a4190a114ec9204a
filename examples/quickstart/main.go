// Quickstart: train a model with SpiderCache on the CIFAR10-like workload
// and compare against the LRU baseline — the repository's 60-second tour.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"spidercache"
)

func main() {
	ds, err := spidercache.NewCIFAR10(0.5, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset %s: %d samples, %d classes, %.1f MiB\n\n",
		ds.Name(), ds.Len(), ds.Classes(), float64(ds.TotalBytes())/(1<<20))

	var results []*spidercache.Result
	for _, policy := range []string{spidercache.PolicySpiderCache, spidercache.PolicyBaseline} {
		res, err := spidercache.TrainWith(ds,
			spidercache.WithPolicy(policy),
			spidercache.WithModel("ResNet18"),
			spidercache.WithEpochs(15),
			spidercache.WithCacheFraction(0.2),
			spidercache.WithSeed(42),
		)
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
