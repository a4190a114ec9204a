// Policy sweep: run every caching policy in the repository on the same
// workload and print a side-by-side comparison — the quickest way to see the
// paper's headline orderings (hit ratio, training time, accuracy) emerge.
//
//	go run ./examples/policysweep
//	go run ./examples/policysweep -dataset cifar100 -epochs 25
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"spidercache"
)

func main() {
	var (
		dsName = flag.String("dataset", "cifar10", "cifar10, cifar100 or imagenet")
		epochs = flag.Int("epochs", 15, "training epochs")
		scale  = flag.Float64("scale", 0.5, "dataset size multiplier")
		cache  = flag.Float64("cache", 0.2, "cache fraction")
		seed   = flag.Uint64("seed", 42, "seed")
	)
	flag.Parse()

	var (
		ds  *spidercache.Dataset
		err error
	)
	switch strings.ToLower(*dsName) {
	case "cifar10":
		ds, err = spidercache.NewCIFAR10(*scale, *seed)
	case "cifar100":
		ds, err = spidercache.NewCIFAR100(*scale, *seed)
	case "imagenet":
		ds, err = spidercache.NewImageNet(*scale, *seed)
	default:
		log.Fatalf("unknown dataset %q", *dsName)
	}
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("workload: %s, %d samples, %d%% cache, %d epochs\n\n",
		ds.Name(), ds.Len(), int(*cache*100), *epochs)
	fmt.Printf("%-16s %8s %8s %9s %12s\n", "policy", "hit%", "sub%", "bestAcc%", "trainTime")
	for _, pol := range spidercache.Policies() {
		res, err := spidercache.TrainWith(ds,
			spidercache.WithPolicy(pol),
			spidercache.WithEpochs(*epochs),
			spidercache.WithCacheFraction(*cache),
			spidercache.WithSeed(*seed),
		)
		if err != nil {
			log.Fatal(err)
		}
		var sub float64
		for _, e := range res.Epochs {
			sub += e.SubRatio
		}
		sub /= float64(len(res.Epochs))
		fmt.Printf("%-16s %8.1f %8.1f %9.1f %12s\n",
			res.Policy, res.AvgHitRatio()*100, sub*100, res.BestAcc*100,
			res.TotalTime.Round(time.Millisecond))
	}
}
