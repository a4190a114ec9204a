// Multi-GPU scaling: reproduce the paper's Section 6.6 observation that
// SpiderCache's advantage over the LRU baseline grows with the number of
// data-parallel workers, because the remote-storage link is shared — compute
// scales out, the I/O bottleneck does not.
//
//	go run ./examples/multigpu
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

	const epochs = 6
	fmt.Printf("%-6s %16s %16s %8s\n", "GPUs", "Baseline/epoch", "SpiderCache/epoch", "gap")
	for workers := 1; workers <= 4; workers++ {
		perEpoch := func(policy string) time.Duration {
			res, err := spidercache.TrainWith(ds,
				spidercache.WithPolicy(policy),
				spidercache.WithEpochs(epochs),
				spidercache.WithCacheFraction(0.2),
				spidercache.WithWorkers(workers),
				// Stall accounting, as in the paper's Fig 17: the question
				// is how long each policy stays blocked on the shared
				// remote link as compute scales out.
				spidercache.WithSerialLoading(),
				spidercache.WithSeed(42),
			)
			if err != nil {
				log.Fatal(err)
			}
			return res.TotalTime / time.Duration(epochs)
		}
		base := perEpoch(spidercache.PolicyBaseline)
		spider := perEpoch(spidercache.PolicySpiderCache)
		fmt.Printf("%-6d %16s %16s %7.2fx\n",
			workers, base.Round(time.Millisecond), spider.Round(time.Millisecond),
			float64(base)/float64(spider))
	}
}
