package trainer

import (
	"math"
	"runtime"
	"testing"
	"time"

	"spidercache/internal/dataset"
	"spidercache/internal/nn"
	"spidercache/internal/policy"
	"spidercache/internal/telemetry"
	"spidercache/internal/tensor"
)

func tinyDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.New(dataset.Config{
		Name: "tiny", Classes: 4, TrainSize: 400, TestSize: 200, Dim: 8,
		ClusterStd: 0.8, BoundaryFrac: 0.1, IsolatedFrac: 0.02, HardFrac: 0.05,
		PayloadMean: 6144, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func tinyConfig(t *testing.T, epochs int) Config {
	return Config{
		Dataset:    tinyDataset(t),
		Model:      nn.ResNet18,
		Epochs:     epochs,
		BatchSize:  64,
		Workers:    1,
		PipelineIS: true,
		Seed:       7,
	}
}

func TestConfigValidation(t *testing.T) {
	good := tinyConfig(t, 2)
	bad := []func(*Config){
		func(c *Config) { c.Dataset = nil },
		func(c *Config) { c.Epochs = 0 },
		func(c *Config) { c.BatchSize = 0 },
		func(c *Config) { c.Workers = 0 },
		func(c *Config) { c.Model = nn.Profile{} },
	}
	for i, mutate := range bad {
		cfg := good
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	if _, err := Run(good, nil); err == nil {
		t.Fatal("nil policy accepted")
	}
}

func TestRunBaselineLearns(t *testing.T) {
	cfg := tinyConfig(t, 8)
	pol, err := policy.NewBaselineLRU(cfg.Dataset.Len(), 80, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg, pol)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != 8 {
		t.Fatalf("epoch records %d", len(res.Epochs))
	}
	if res.FinalAcc < 0.5 {
		t.Fatalf("final accuracy %.3f on easy 4-class task", res.FinalAcc)
	}
	if res.BestAcc < res.FinalAcc {
		t.Fatal("best < final")
	}
	if res.TotalTime <= 0 {
		t.Fatal("no simulated time accumulated")
	}
	if res.FinalModel == nil {
		t.Fatal("trained model not exposed")
	}
	first := res.Epochs[0]
	if first.Requests != cfg.Dataset.Len() {
		t.Fatalf("epoch requests %d, want %d", first.Requests, cfg.Dataset.Len())
	}
	if first.HitCache+first.HitSub+first.Misses != first.Requests {
		t.Fatal("hit/miss accounting does not sum to requests")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *Result {
		cfg := tinyConfig(t, 3)
		pol, _ := policy.NewBaselineLRU(cfg.Dataset.Len(), 80, 1)
		res, err := Run(cfg, pol)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	for e := range a.Epochs {
		if a.Epochs[e] != b.Epochs[e] {
			t.Fatalf("epoch %d differs:\n%+v\n%+v", e, a.Epochs[e], b.Epochs[e])
		}
	}
}

func TestHitsReduceEpochTime(t *testing.T) {
	cfg := tinyConfig(t, 4)
	noCache, _ := policy.NewBaselineLRU(cfg.Dataset.Len(), 0, 1)
	bigCache, _ := policy.NewCoorDL(cfg.Dataset.Len(), cfg.Dataset.Len(), 1)
	slow, err := Run(cfg, noCache)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Run(cfg, bigCache)
	if err != nil {
		t.Fatal(err)
	}
	// A full static cache hits everything after epoch 1.
	if fast.Epochs[3].HitRatio() < 0.99 {
		t.Fatalf("full cache hit ratio %.3f", fast.Epochs[3].HitRatio())
	}
	if fast.Epochs[3].EpochTime >= slow.Epochs[3].EpochTime/2 {
		t.Fatalf("cached epoch (%v) not much faster than uncached (%v)",
			fast.Epochs[3].EpochTime, slow.Epochs[3].EpochTime)
	}
}

func TestLoadingDominatesUncached(t *testing.T) {
	cfg := tinyConfig(t, 2)
	pol, _ := policy.NewBaselineLRU(cfg.Dataset.Len(), 0, 1)
	res, _ := Run(cfg, pol)
	last := res.Epochs[1]
	parts := last.LoadTime + last.PreprocTime + last.ComputeTime + last.ISTime
	if frac := float64(last.LoadTime) / float64(parts); frac <= 0.6 {
		t.Fatalf("loading share %.2f, want > 0.6 (paper Fig 3a)", frac)
	}
	// With the prefetch pipeline the wall clock follows the loading track
	// when uncached.
	if last.EpochTime < last.LoadTime {
		t.Fatalf("wall %v below loading track %v", last.EpochTime, last.LoadTime)
	}
}

// stubPolicy exercises the trainer's policy hooks deterministically.
type stubPolicy struct {
	n          int
	graphIS    bool
	substitute bool
	batchCalls int
	epochCalls int
	gotLosses  bool
	gotEmbed   bool
}

func (s *stubPolicy) Name() string { return "stub" }
func (s *stubPolicy) EpochOrder(int) []int {
	out := make([]int, s.n)
	for i := range out {
		out[i] = i
	}
	return out
}
func (s *stubPolicy) Lookup(id int) policy.Lookup {
	if s.substitute {
		return policy.Lookup{Source: policy.SourceSubstitute, ServedID: (id + 1) % s.n}
	}
	return policy.Lookup{Source: policy.SourceMiss, ServedID: id}
}
func (s *stubPolicy) OnMiss(int, int) {}
func (s *stubPolicy) OnBatchEnd(_ int, fb []policy.Feedback) {
	s.batchCalls++
	for _, f := range fb {
		if f.Loss > 0 {
			s.gotLosses = true
		}
		if len(f.Embedding) > 0 {
			s.gotEmbed = true
		}
	}
}
func (s *stubPolicy) OnEpochEnd(int, float64)                     { s.epochCalls++ }
func (s *stubPolicy) BackpropWeights([]policy.Feedback) []float64 { return nil }
func (s *stubPolicy) HasGraphIS() bool                            { return s.graphIS }

func TestPolicyHooksDriven(t *testing.T) {
	cfg := tinyConfig(t, 2)
	stub := &stubPolicy{n: cfg.Dataset.Len()}
	if _, err := Run(cfg, stub); err != nil {
		t.Fatal(err)
	}
	wantBatches := 2 * ((cfg.Dataset.Len() + cfg.BatchSize - 1) / cfg.BatchSize)
	if stub.batchCalls != wantBatches {
		t.Fatalf("OnBatchEnd calls %d, want %d", stub.batchCalls, wantBatches)
	}
	if stub.epochCalls != 2 {
		t.Fatalf("OnEpochEnd calls %d", stub.epochCalls)
	}
	if !stub.gotLosses || !stub.gotEmbed {
		t.Fatal("feedback missing losses or embeddings")
	}
}

func TestSubstituteAccounting(t *testing.T) {
	cfg := tinyConfig(t, 1)
	stub := &stubPolicy{n: cfg.Dataset.Len(), substitute: true}
	res, err := Run(cfg, stub)
	if err != nil {
		t.Fatal(err)
	}
	e := res.Epochs[0]
	if e.HitSub != e.Requests || e.Misses != 0 {
		t.Fatalf("substitute accounting wrong: %+v", e)
	}
}

func TestPipelineHidesIS(t *testing.T) {
	run := func(pipeline bool) *Result {
		cfg := tinyConfig(t, 2)
		cfg.PipelineIS = pipeline
		// Serial loading isolates the IS pipeline's wall-clock effect from
		// the DataLoader prefetch overlap.
		cfg.SerialLoading = true
		stub := &stubPolicy{n: cfg.Dataset.Len(), graphIS: true}
		res, err := Run(cfg, stub)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	with := run(true)
	without := run(false)
	// ResNet18: IS (16ms) < Stage2 (35ms), so the pipeline hides it fully.
	if with.Epochs[1].ISTime != 0 {
		t.Fatalf("visible IS time %v with pipeline", with.Epochs[1].ISTime)
	}
	if without.Epochs[1].ISTime == 0 {
		t.Fatal("no IS time charged without pipeline")
	}
	if with.TotalTime >= without.TotalTime {
		t.Fatal("pipeline did not shorten the run")
	}
}

func TestNoISChargeForLossPolicies(t *testing.T) {
	cfg := tinyConfig(t, 1)
	stub := &stubPolicy{n: cfg.Dataset.Len(), graphIS: false}
	res, _ := Run(cfg, stub)
	if res.Epochs[0].ISTime != 0 {
		t.Fatal("IS time charged to a non-graph policy")
	}
}

func TestWorkersScaleComputeNotMissLoad(t *testing.T) {
	run := func(workers int) *Result {
		cfg := tinyConfig(t, 2)
		cfg.Workers = workers
		pol, _ := policy.NewBaselineLRU(cfg.Dataset.Len(), 0, 1)
		res, err := Run(cfg, pol)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	one := run(1)
	four := run(4)
	// Compute shrinks with workers; miss-dominated loading does not.
	if four.Epochs[1].ComputeTime >= one.Epochs[1].ComputeTime {
		t.Fatal("compute did not scale with workers")
	}
	ratio := float64(one.Epochs[1].LoadTime) / float64(four.Epochs[1].LoadTime)
	if ratio > 1.3 {
		t.Fatalf("miss-bound load scaled too much: %.2fx", ratio)
	}
	if four.Epochs[1].CommTime == 0 {
		t.Fatal("no communication cost with 4 workers")
	}
	if one.Epochs[1].CommTime != 0 {
		t.Fatal("communication cost with 1 worker")
	}
}

func TestAccuracySeriesHelpers(t *testing.T) {
	cfg := tinyConfig(t, 3)
	pol, _ := policy.NewBaselineLRU(cfg.Dataset.Len(), 10, 1)
	res, _ := Run(cfg, pol)
	if len(res.Epochs) != 3 {
		t.Fatalf("%d epochs recorded, want 3", len(res.Epochs))
	}
	for i, e := range res.Epochs {
		if e.Accuracy < 0 || e.Accuracy > 1 {
			t.Fatalf("epoch %d accuracy %g out of range", i, e.Accuracy)
		}
		if e.TrainLoss < 0 || math.IsNaN(e.TrainLoss) || math.IsInf(e.TrainLoss, 0) {
			t.Fatalf("epoch %d train loss %g not finite and non-negative", i, e.TrainLoss)
		}
	}
	if res.AvgHitRatio() < 0 || res.AvgHitRatio() > 1 {
		t.Fatal("AvgHitRatio out of range")
	}
}

func TestEpochStatsHitRatio(t *testing.T) {
	e := EpochStats{Requests: 100, HitCache: 30, HitSub: 20}
	if e.HitRatio() != 0.5 {
		t.Fatalf("HitRatio = %g", e.HitRatio())
	}
	if (EpochStats{}).HitRatio() != 0 {
		t.Fatal("empty stats hit ratio nonzero")
	}
	r := Result{Epochs: []EpochStats{e, {Requests: 100, HitCache: 10}}}
	if r.AvgHitRatio() != 0.3 {
		t.Fatalf("AvgHitRatio = %g, want 0.3", r.AvgHitRatio())
	}
	if (&Result{}).AvgHitRatio() != 0 {
		t.Fatal("empty run AvgHitRatio nonzero")
	}
}

func TestBatchCostScalesWithSkippedBackprop(t *testing.T) {
	if keptFraction(nil) != 1 {
		t.Fatal("nil weights should keep everything")
	}
	if keptFraction([]float64{0, 0, 1, 1}) != 0.5 {
		t.Fatal("kept fraction wrong")
	}
	if keptFraction([]float64{}) != 1 {
		t.Fatal("empty weights edge case")
	}
}

func TestEvaluateUsesHeldOutSet(t *testing.T) {
	// The accuracy must be computed on the test split: a dataset with an
	// empty-but-valid test size of 1 must still work.
	ds, err := dataset.New(dataset.Config{
		Name: "t1", Classes: 2, TrainSize: 64, TestSize: 1, Dim: 4,
		ClusterStd: 0.5, PayloadMean: 128, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Dataset: ds, Model: nn.ResNet18, Epochs: 1, BatchSize: 16, Workers: 1, Seed: 1}
	pol, _ := policy.NewBaselineLRU(64, 8, 1)
	res, err := Run(cfg, pol)
	if err != nil {
		t.Fatal(err)
	}
	if acc := res.Epochs[0].Accuracy; acc != 0 && acc != 1 {
		t.Fatalf("single-test-sample accuracy %g", acc)
	}
}

// TestDefaultsFilled checks that the learner a run trains takes its shape
// from the dataset and the model profile.
func TestDefaultsFilled(t *testing.T) {
	cfg := tinyConfig(t, 1)
	pol, _ := policy.NewBaselineLRU(cfg.Dataset.Len(), 0, 1)
	res, err := Run(cfg, pol)
	if err != nil {
		t.Fatal(err)
	}
	got := res.FinalModel.Config()
	if got.InputDim != cfg.Dataset.Config.Dim || got.Classes != cfg.Dataset.Config.Classes {
		t.Fatalf("learner %+v: input or class count not taken from the dataset", got)
	}
	if got.EmbedDim != nn.ResNet18.EmbedDim || got.HiddenDim != 4*nn.ResNet18.EmbedDim {
		t.Fatalf("learner %+v: embedding or hidden width not taken from the profile", got)
	}
}

func TestEpochTimeIsSumOfPartsWhenSerial(t *testing.T) {
	cfg := tinyConfig(t, 1)
	cfg.SerialLoading = true
	pol, _ := policy.NewBaselineLRU(cfg.Dataset.Len(), 0, 1)
	res, _ := Run(cfg, pol)
	e := res.Epochs[0]
	sum := e.LoadTime + e.PreprocTime + e.ComputeTime + e.ISTime + e.CommTime
	diff := e.EpochTime - sum
	if diff < 0 {
		diff = -diff
	}
	if diff > time.Millisecond {
		t.Fatalf("serial epoch time %v != parts sum %v", e.EpochTime, sum)
	}
}

func TestPrefetchOverlapsLoading(t *testing.T) {
	run := func(serial bool) *Result {
		cfg := tinyConfig(t, 1)
		cfg.SerialLoading = serial
		pol, _ := policy.NewBaselineLRU(cfg.Dataset.Len(), 0, 1)
		res, err := Run(cfg, pol)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	overlapped := run(false)
	serial := run(true)
	eo, es := overlapped.Epochs[0], serial.Epochs[0]
	if eo.EpochTime >= es.EpochTime {
		t.Fatalf("prefetch did not shorten the epoch: %v vs %v", eo.EpochTime, es.EpochTime)
	}
	// Uncached and load-bound: the overlapped wall tracks loading alone.
	slack := time.Duration(float64(eo.LoadTime) * 0.05)
	if eo.EpochTime > eo.LoadTime+eo.CommTime+slack {
		t.Fatalf("overlapped wall %v far above loading track %v", eo.EpochTime, eo.LoadTime)
	}
}

// TestKernelTelemetryIsTheRunsDelta: tensor_kernels_total counts, per mode,
// exactly the kernel dispatches the run made, i.e. the change in the
// process-global tensor.KernelStats from before the run to after it. At
// four cores the run both forks and falls back to serial, so each mode's
// series is checked against a non-zero delta.
func TestKernelTelemetryIsTheRunsDelta(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	cfg := tinyConfig(t, 2)
	reg := telemetry.NewRegistry()
	cfg.Metrics = reg
	pol, err := policy.NewBaselineLRU(cfg.Dataset.Len(), 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	par0, ser0 := tensor.KernelStats()
	if _, err := Run(cfg, pol); err != nil {
		t.Fatal(err)
	}
	par1, ser1 := tensor.KernelStats()
	for mode, want := range map[string]int64{"parallel": par1 - par0, "serial": ser1 - ser0} {
		if want == 0 {
			t.Fatalf("the run dispatched no %s kernel; the check below would be vacuous", mode)
		}
		if got := reg.Counter("tensor_kernels_total", telemetry.Labels{"mode": mode}).Value(); got != want {
			t.Errorf("tensor_kernels_total{mode=%q} = %d, want the run's KernelStats delta %d", mode, got, want)
		}
	}
}
