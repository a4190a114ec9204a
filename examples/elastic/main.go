// Elastic cache tuning: reproduce the paper's Section 6.5 study on your own
// workload — a static 90:10 split versus dynamic 90→80 and 90→50 shifts
// between the Importance and Homophily cache sections. The static split is
// the elastic range with r_end = r_start.
//
// Lower final imp-ratios buy hit ratio (and therefore training speed) at a
// small accuracy cost; the Imp-Ratio is the user-facing knob SpiderCache
// exposes for that trade.
//
//	go run ./examples/elastic
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

	strategies := []struct {
		label  string
		rStart float64
		rEnd   float64
	}{
		{"static 90%", 0.90, 0.90},
		{"90% -> 80%", 0.90, 0.80},
		{"90% -> 50%", 0.90, 0.50},
	}

	fmt.Printf("%-12s %10s %10s %10s %12s\n", "strategy", "avgHit%", "lateHit%", "bestAcc%", "trainTime")
	for _, s := range strategies {
		res, err := spidercache.TrainWith(ds,
			spidercache.WithPolicy(spidercache.PolicySpiderCache),
			spidercache.WithEpochs(20),
			spidercache.WithCacheFraction(0.2),
			spidercache.WithElasticRange(s.rStart, s.rEnd),
			spidercache.WithSeed(42),
		)
		if err != nil {
			log.Fatal(err)
		}
		// Late-stage hit ratio: the last quarter of training, where the
		// paper shows the static split sagging.
		late := res.Epochs[len(res.Epochs)*3/4:]
		var lateHit float64
		for _, e := range late {
			lateHit += e.HitRatio
		}
		lateHit /= float64(len(late))

		fmt.Printf("%-12s %10.1f %10.1f %10.1f %12s\n",
			s.label, res.AvgHitRatio()*100, lateHit*100, res.BestAcc*100,
			res.TotalTime.Round(time.Millisecond))
	}
	fmt.Println("\nprefer accuracy -> keep the imp-ratio high; prefer speed -> let it fall")
}
