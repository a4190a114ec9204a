package experiments

import (
	"fmt"
	"math"

	"spidercache/internal/dataset"
	"spidercache/internal/nn"
	"spidercache/internal/semgraph"
	"spidercache/internal/table"
	"spidercache/internal/tensor"
	"spidercache/internal/trainer"
)

// Fig8 reproduces the embedding-space analysis behind the paper's Fig 8:
// as training progresses, same-class embeddings cluster and classes
// separate, and the population splits into the four states the graph-based
// score distinguishes (well-classified / boundary / isolated /
// misclassified).
//
// Deterministic same-seed runs share their epoch prefix, so snapshots at
// increasing depths are taken by re-running to 3 different epoch counts and
// analysing each final model's embeddings.
//
// A second table is the accuracy half of the figure's story: held-out
// accuracy per planted population, for the last checkpoint's SpiderCache
// model beside a Baseline model trained as long.
func Fig8(opt Options) (*Report, error) {
	ds, err := cifar10(opt)
	if err != nil {
		return nil, err
	}
	total := opt.epochs(20)
	checkpoints := []int{1, (total + 1) / 2, total}

	t := table.New("Fig 8: embedding geometry and sample states over training",
		"Epoch", "IntraDist", "InterDist", "Separation", "Well%", "Boundary%", "Isolated%", "Misclass%")
	var seps []float64
	var misShares []float64
	var spider *trainer.Result
	for _, e := range checkpoints {
		pol, err := BuildPolicy("spider", PolicyParams{Dataset: ds, Capacity: capacityFor(ds, 0.2), Epochs: e, Seed: opt.Seed, Metrics: opt.Metrics})
		if err != nil {
			return nil, err
		}
		res, err := trainer.Run(runConfig(opt, ds, nn.ResNet18, e, opt.Seed), pol)
		if err != nil {
			return nil, err
		}
		stats, err := embeddingStats(res, ds.Labels, tensor.FromRows(ds.Features))
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", e),
			fmt.Sprintf("%.3f", stats.intra),
			fmt.Sprintf("%.3f", stats.inter),
			fmt.Sprintf("%.2f", stats.inter/stats.intra),
			percent(stats.well), percent(stats.boundary),
			percent(stats.isolated), percent(stats.misclassified))
		seps = append(seps, stats.inter/stats.intra)
		misShares = append(misShares, stats.misclassified)
		spider = res
	}
	pol, err := BuildPolicy("baseline", PolicyParams{Dataset: ds, Capacity: capacityFor(ds, 0.2), Epochs: total, Seed: opt.Seed, Metrics: opt.Metrics})
	if err != nil {
		return nil, err
	}
	baseline, err := trainer.Run(runConfig(opt, ds, nn.ResNet18, total, opt.Seed), pol)
	if err != nil {
		return nil, err
	}
	pt := table.New(fmt.Sprintf("Fig 8: held-out accuracy per planted population (epoch %d)", total),
		"Population", "n", "SpiderCache%", "Baseline%")
	spiderAcc, n := populationAccuracy(spider, ds)
	baseAcc, _ := populationAccuracy(baseline, ds)
	for _, k := range populations {
		if n[k] == 0 {
			pt.AddRow(k.String(), "0", "-", "-")
			continue
		}
		pt.AddRow(k.String(), fmt.Sprintf("%d", n[k]), percent(spiderAcc[k]), percent(baseAcc[k]))
	}
	notes := []string{
		"paper: intra-class clustering and inter-class separation strengthen over training (Fig 8a)",
		"paper: the misclassified share shrinks as samples migrate to the well-classified state (Fig 8b)",
	}
	if seps[len(seps)-1] <= seps[0] {
		notes = append(notes, fmt.Sprintf("deviation: separation ratio did not grow (%.2f -> %.2f)", seps[0], seps[len(seps)-1]))
	}
	if misShares[len(misShares)-1] >= misShares[0] {
		notes = append(notes, fmt.Sprintf("deviation: misclassified share did not fall (%.1f%% -> %.1f%%)", misShares[0]*100, misShares[len(misShares)-1]*100))
	}
	return &Report{ID: "fig8", Title: "Embeddings in DNN training", Tables: []*table.Table{t, pt}, Notes: notes}, nil
}

// populations are the dataset's planted sample populations, in table order.
var populations = []dataset.Kind{dataset.Easy, dataset.Boundary, dataset.Isolated, dataset.Hard}

// populationAccuracy evaluates a run's final model on the held-out set,
// one batch per planted population, and returns the accuracy and sample
// count of each.
func populationAccuracy(res *trainer.Result, ds *dataset.Dataset) (acc map[dataset.Kind]float64, n map[dataset.Kind]int) {
	rows := map[dataset.Kind][][]float64{}
	labels := map[dataset.Kind][]int{}
	for i, k := range ds.TestKinds {
		rows[k] = append(rows[k], ds.TestFeatures[i])
		labels[k] = append(labels[k], ds.TestLabels[i])
	}
	acc, n = map[dataset.Kind]float64{}, map[dataset.Kind]int{}
	for _, k := range populations {
		if n[k] = len(rows[k]); n[k] > 0 {
			acc[k], _ = res.FinalModel.Evaluate(tensor.FromRows(rows[k]), labels[k])
		}
	}
	return acc, n
}

type embStats struct {
	intra, inter                            float64
	well, boundary, isolated, misclassified float64
}

// embeddingStats runs the trained model over the training features and
// analyses the (normalised) embedding geometry.
func embeddingStats(res *trainer.Result, labels []int, x *tensor.Matrix) (embStats, error) {
	fr := res.FinalModel.Forward(x, labels)
	n := len(labels)
	emb := make([][]float64, n)
	for i := range emb {
		emb[i] = semgraph.NormalizeInto(nil, fr.Embeddings[i])
	}

	// Pairwise distance sampling (full O(n^2) is unnecessary).
	var intraSum, interSum float64
	var intraN, interN int
	step := n/600 + 1
	for i := 0; i < n; i += step {
		for j := i + 1; j < n; j += step {
			d := dist(emb[i], emb[j])
			if labels[i] == labels[j] {
				intraSum += d
				intraN++
			} else {
				interSum += d
				interN++
			}
		}
	}
	var st embStats
	if intraN > 0 {
		st.intra = intraSum / float64(intraN)
	}
	if interN > 0 {
		st.inter = interSum / float64(interN)
	}

	// State classification through the same scoring machinery SpiderCache
	// uses, over an exact searcher.
	g, err := semgraph.New(labels, semgraph.NewBruteSearcher())
	if err != nil {
		return st, err
	}
	for i, v := range emb {
		if err := g.Update(i, v); err != nil {
			return st, err
		}
	}
	k := float64(g.K())
	var counted float64
	for i := 0; i < n; i += step {
		r, err := g.Score(i, emb[i])
		if err != nil {
			return st, err
		}
		same, other := float64(r.Same-1), float64(r.Other) // self excluded
		counted++
		switch {
		case other > same:
			st.misclassified++
		case same+other < k*0.25:
			st.isolated++
		case other >= 1:
			st.boundary++
		default:
			st.well++
		}
	}
	st.well /= counted
	st.boundary /= counted
	st.isolated /= counted
	st.misclassified /= counted
	return st, nil
}

func dist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}
