package experiments

import (
	"fmt"
	"time"

	"spidercache/internal/dataset"
	"spidercache/internal/nn"
	"spidercache/internal/table"
	"spidercache/internal/trainer"
)

// bestModel returns the paper's best-performing profile for a dataset:
// ResNet18 for the CIFAR-likes, ResNet50 for the ImageNet-like.
func bestModel(ds *dataset.Dataset) nn.Profile {
	if ds.Config.Classes > 100 {
		return nn.ResNet50
	}
	return nn.ResNet18
}

// Table3 reproduces the IS-algorithm comparison (Fig 13 + Table 3): caching
// disabled, four sampling strategies compared on accuracy and loss across
// the three datasets. SpiderCache's graph-based IS should lead accuracy;
// iCache's compute-bound IS should trail even random sampling on the harder
// datasets.
func Table3(opt Options) (*Report, error) {
	dss, err := datasets(opt)
	if err != nil {
		return nil, err
	}
	epochs := opt.epochs(30)
	names := []string{"spider", "shade", "icache", "coordl"}
	acc := table.New("Table 3: Top-1 accuracy (%), cache disabled",
		"Dataset", "SpiderCache", "SHADE", "iCache", "CoorDL")
	loss := table.New("Fig 13(d-f): final training loss, cache disabled",
		"Dataset", "SpiderCache", "SHADE", "iCache", "CoorDL")
	for _, ds := range dss {
		accRow := []string{ds.Config.Name}
		lossRow := []string{ds.Config.Name}
		for _, name := range names {
			res, err := runPolicy(name, ds, bestModel(ds), epochs, 0, opt)
			if err != nil {
				return nil, err
			}
			accRow = append(accRow, percent(res.BestAcc))
			lossRow = append(lossRow, fmt.Sprintf("%.3f", res.Epochs[len(res.Epochs)-1].TrainLoss))
		}
		acc.AddRow(accRow...)
		loss.AddRow(lossRow...)
	}
	return &Report{
		ID:     "table3",
		Title:  "Effectiveness of the graph-based IS algorithm",
		Tables: []*table.Table{acc, loss},
		Notes: []string{
			"paper: SpiderCache > SHADE > CoorDL >= iCache on accuracy across all three datasets",
			"paper: loss gaps are largest on CIFAR100 (hardest task) and smallest on ImageNet",
		},
	}, nil
}

// Fig14 reproduces the hit-ratio sweep: seven policies, four models, four
// cache sizes on the CIFAR10-like workload. SpiderCache should lead at every
// size with the largest amplification at small caches.
func Fig14(opt Options) (*Report, error) {
	ds, err := cifar10(opt)
	if err != nil {
		return nil, err
	}
	epochs := opt.epochs(6)
	fracs := []float64{0.10, 0.25, 0.50, 0.75}
	names := []string{"baseline", "coordl", "shade", "icache-imp", "icache", "spider-imp", "spider"}

	tables := make([]*table.Table, 0, len(nn.AllProfiles()))
	var bestAmp float64
	var ampSum, ampN float64
	for _, model := range nn.AllProfiles() {
		t := table.New(
			fmt.Sprintf("Fig 14: avg epoch hit ratio (%%), %s on CIFAR10-like", model.Name),
			append([]string{"Policy"}, "10%", "25%", "50%", "75%")...)
		base := make([]float64, len(fracs))
		rows := make(map[string][]float64, len(names))
		for _, name := range names {
			vals := make([]float64, len(fracs))
			for fi, frac := range fracs {
				res, err := runPolicy(name, ds, model, epochs, capacityFor(ds, frac), opt)
				if err != nil {
					return nil, err
				}
				vals[fi] = res.AvgHitRatio()
			}
			rows[name] = vals
			if name == "baseline" {
				copy(base, vals)
			}
		}
		for _, name := range names {
			vals := rows[name]
			cells := []string{displayName(name)}
			for fi := range fracs {
				cells = append(cells, percent(vals[fi]))
				if name == "spider" && base[fi] > 0 {
					amp := vals[fi] / base[fi]
					ampSum += amp
					ampN++
					if amp > bestAmp {
						bestAmp = amp
					}
				}
			}
			t.AddRow(cells...)
		}
		tables = append(tables, t)
	}
	notes := []string{
		fmt.Sprintf("SpiderCache vs Baseline amplification: up to %.2fx, avg %.2fx (paper: up to 8.5x, avg 4.15x)", bestAmp, ampSum/ampN),
		"expected ordering per cache size: SpiderCache > iCache > SHADE ~ SpiderCache-imp > CoorDL > iCache-imp > Baseline",
	}
	return &Report{ID: "fig14", Title: "Cache hit ratio across policies, models and cache sizes", Tables: tables, Notes: notes}, nil
}

// Table4 reproduces the end-to-end comparison (Fig 15 + Tables 4 and 5):
// total training time and final accuracy for the five full policies at a 20%
// cache. SpiderCache should be fastest while holding the best accuracy.
func Table4(opt Options) (*Report, error) {
	dss, err := datasets(opt)
	if err != nil {
		return nil, err
	}
	epochs := opt.epochs(40)
	names := []string{"spider", "shade", "icache", "coordl", "baseline"}
	timeT := table.New("Table 4: total training time (simulated)",
		"Dataset", "SpiderCache", "SHADE", "iCache", "CoorDL", "Baseline", "Speedup")
	accT := table.New("Table 5: end-to-end Top-1 accuracy (%)",
		"Dataset", "SpiderCache", "SHADE", "iCache", "CoorDL", "Baseline")
	var maxSpeed, sumSpeed float64
	for _, ds := range dss {
		capacity := capacityFor(ds, 0.2)
		times := make([]time.Duration, len(names))
		timeRow := []string{ds.Config.Name}
		accRow := []string{ds.Config.Name}
		for i, name := range names {
			res, err := runPolicy(name, ds, bestModel(ds), epochs, capacity, opt)
			if err != nil {
				return nil, err
			}
			times[i] = res.TotalTime
			timeRow = append(timeRow, res.TotalTime.Round(time.Millisecond).String())
			accRow = append(accRow, percent(res.BestAcc))
		}
		speed := float64(times[len(times)-1]) / float64(times[0])
		sumSpeed += speed
		if speed > maxSpeed {
			maxSpeed = speed
		}
		timeRow = append(timeRow, fmt.Sprintf("%.2fx", speed))
		timeT.AddRow(timeRow...)
		accT.AddRow(accRow...)
	}
	notes := []string{
		fmt.Sprintf("SpiderCache speedup over Baseline: up to %.2fx, avg %.2fx (paper: up to 2.33x, avg 2.21x)", maxSpeed, sumSpeed/float64(len(dss))),
		"paper ordering on time: SpiderCache < iCache < SHADE < CoorDL < Baseline; on accuracy: SpiderCache highest, iCache lowest",
	}
	return &Report{ID: "table4", Title: "End-to-end performance (20% cache)", Tables: []*table.Table{timeT, accT}, Notes: notes}, nil
}

// Table6 reproduces the elastic-manager study (Fig 16 + Table 6): a static
// 90:10 split versus dynamic 90->80 and 90->50 shifts. Lower final
// imp-ratios trade a little accuracy for better late-stage hit ratio and
// shorter training time.
func Table6(opt Options) (*Report, error) {
	ds, err := cifar10(opt)
	if err != nil {
		return nil, err
	}
	epochs := opt.epochs(30)
	capacity := capacityFor(ds, 0.2)
	// The static 90% strategy is Eq. 8 with r_end = r_start.
	strategies := []struct {
		label        string
		rStart, rEnd float64
	}{
		{"90%", 0.90, 0.90},
		{"90%-80%", 0.90, 0.80},
		{"90%-50%", 0.90, 0.50},
	}

	summary := table.New("Table 6: end-to-end comparison under different Imp-Ratio",
		"Strategy", "Top-1 Acc%", "TrainTime", "AvgHit%", "LateHit%")
	series := make([]table.Series, 0, len(strategies))
	for i, s := range strategies {
		pol, err := BuildPolicy("spider", PolicyParams{
			Dataset: ds, Capacity: capacity, Epochs: epochs, Seed: opt.Seed + uint64(i),
			RStart: s.rStart, REnd: s.rEnd,
			Metrics: opt.Metrics,
		})
		if err != nil {
			return nil, err
		}
		res, err := trainer.Run(runConfig(opt, ds, nn.ResNet18, epochs, opt.Seed+uint64(i)), pol)
		if err != nil {
			return nil, err
		}
		hits := make([]float64, len(res.Epochs))
		for e, st := range res.Epochs {
			hits[e] = st.HitRatio()
		}
		late := table.Mean(hits[len(hits)*3/4:])
		summary.AddRow(s.label, percent(res.BestAcc),
			res.TotalTime.Round(time.Millisecond).String(),
			percent(res.AvgHitRatio()), percent(late))
		series = append(series, table.Series{Name: s.label, Points: hits})
	}
	hitCurves := seriesTable("Fig 16(a): per-epoch total hit ratio", "Epoch", series)
	return &Report{
		ID:     "table6",
		Title:  "Effectiveness of the Elastic Cache Manager",
		Tables: []*table.Table{summary, hitCurves},
		Notes: []string{
			"paper: static 90% hit ratio sags in late epochs; 90-80 stabilises it; 90-50 lifts it further at a small accuracy cost",
			"paper Table 6: acc 81.63 / 81.44 / 78.87, time 165 / 125 / 109 min — same monotone trade-off expected here",
		},
	}, nil
}

// Fig17 reproduces the multi-GPU scaling study: per-epoch time for 1-4
// data-parallel workers, Baseline vs SpiderCache. Because the remote link is
// shared, the I/O-bound Baseline barely scales while SpiderCache's hits keep
// shrinking compute, so the gap widens with worker count.
func Fig17(opt Options) (*Report, error) {
	ds, err := cifar10(opt)
	if err != nil {
		return nil, err
	}
	epochs := opt.epochs(4)
	capacity := capacityFor(ds, 0.2)
	t := table.New("Fig 17: avg per-epoch time vs simulated GPU count (CIFAR10-like, ResNet18)",
		"GPUs", "Baseline", "SpiderCache", "Gap")
	for workers := 1; workers <= 4; workers++ {
		var times [2]time.Duration
		for i, name := range []string{"baseline", "spider"} {
			pol, err := BuildPolicy(name, PolicyParams{Dataset: ds, Capacity: capacity, Epochs: epochs, Seed: opt.Seed + uint64(workers), Metrics: opt.Metrics})
			if err != nil {
				return nil, err
			}
			cfg := runConfig(opt, ds, nn.ResNet18, epochs, opt.Seed+uint64(workers))
			cfg.Workers = workers
			// Stall accounting (no prefetch overlap): Fig 17's comparison is
			// about how much of the epoch each policy spends blocked on the
			// shared remote link as compute scales out.
			cfg.SerialLoading = true
			res, err := trainer.Run(cfg, pol)
			if err != nil {
				return nil, err
			}
			times[i] = res.TotalTime / time.Duration(epochs)
		}
		t.AddRow(fmt.Sprintf("%d", workers),
			times[0].Round(time.Millisecond).String(),
			times[1].Round(time.Millisecond).String(),
			fmt.Sprintf("%.2fx", float64(times[0])/float64(times[1])))
	}
	return &Report{
		ID:     "fig17",
		Title:  "Multi-GPU training",
		Tables: []*table.Table{t},
		Notes:  []string{"paper: SpiderCache's advantage grows with GPU count because it removes the shared I/O bottleneck"},
	}, nil
}
