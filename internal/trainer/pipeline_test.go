// External test package: these tests build policies through the experiments
// registry, which itself imports trainer.
package trainer_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"reflect"
	"runtime"
	"testing"

	"spidercache/internal/dataset"
	"spidercache/internal/experiments"
	"spidercache/internal/leakcheck"
	"spidercache/internal/nn"
	"spidercache/internal/policy"
	"spidercache/internal/trainer"
)

func pipelineConfig(tb testing.TB, epochs int) trainer.Config {
	tb.Helper()
	ds, err := dataset.New(dataset.Config{
		Name: "tiny", Classes: 4, TrainSize: 400, TestSize: 200, Dim: 8,
		ClusterStd: 0.8, BoundaryFrac: 0.1, IsolatedFrac: 0.02, HardFrac: 0.05,
		PayloadMean: 6144, Seed: 3,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return trainer.Config{
		Dataset: ds, Model: nn.ResNet18, Epochs: epochs,
		BatchSize: 64, Workers: 1, PipelineIS: true, Seed: 7,
	}
}

// runWith trains a fresh policy and returns the result stripped of the
// model pointer, so results are directly comparable.
func runWith(t *testing.T, cfg trainer.Config, build func() policy.Policy) *trainer.Result {
	t.Helper()
	res, err := trainer.Run(cfg, build())
	if err != nil {
		t.Fatal(err)
	}
	res.FinalModel = nil
	return res
}

// TestRunDeterministic runs the full SpiderCache policy twice: identical
// seeds must give identical results in every field (epoch stats, simulated
// times, accuracy trajectory), however the backward goroutine is scheduled.
func TestRunDeterministic(t *testing.T) {
	leakcheck.Check(t)
	cfg := pipelineConfig(t, 3)
	build := func() policy.Policy {
		pol, err := experiments.BuildPolicy("spider", experiments.PolicyParams{
			Dataset: cfg.Dataset, Capacity: 80, Epochs: cfg.Epochs, Seed: 11,
		})
		if err != nil {
			t.Fatal(err)
		}
		return pol
	}
	a := runWith(t, cfg, build)
	b := runWith(t, cfg, build)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("runs diverged:\n%+v\nvs\n%+v", a, b)
	}
}

// TestTrainingIdenticalAcrossCores: the host's core count changes how fast
// a run goes, never what it computes. A spider run at GOMAXPROCS 1 takes
// every serial path (tensor kernels, batch scoring, the ANN index's
// settle); at GOMAXPROCS 4 each of them forks. Their records must be
// bit-equal.
func TestTrainingIdenticalAcrossCores(t *testing.T) {
	ds, err := dataset.New(dataset.CIFAR10Like(0.3, 3))
	if err != nil {
		t.Fatal(err)
	}
	cfg := trainer.Config{
		Dataset: ds, Model: nn.ResNet18, Epochs: 4,
		BatchSize: 64, Workers: 1, PipelineIS: true, Seed: 7,
	}
	trainAt := func(procs int) *trainer.Result {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return runWith(t, cfg, func() policy.Policy {
			pol, err := experiments.BuildPolicy("spider", experiments.PolicyParams{
				Dataset: ds, Capacity: int(float64(ds.Len()) * 0.2), Epochs: cfg.Epochs, Seed: cfg.Seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			return pol
		})
	}
	if one, four := trainAt(1), trainAt(4); !reflect.DeepEqual(one, four) {
		t.Fatalf("GOMAXPROCS 1 and 4 trained differently:\n%+v\nvs\n%+v", one, four)
	}
}

// TestRunMatchesParentGolden pins whole runs bit for bit: FNV-64a over
// every EpochStats field of a run, and FinalAcc, per row. The first four
// hashes were recorded with the serial loop, before Backward ran beside
// the IS stage, so they prove the overlap changes no result; the other
// rows cover the remaining paper policies, the static split and an
// elastic run long enough for β to latch. History: the spider hash was
// 0xbf22615dfc02d38e until a search for a point the batch's settle had
// just re-linked began to read that settle's layer-0 beam (EfConstruction
// wide) instead of searching again at EfSearch: the scores, and through
// them the run, are those of a different search (DESIGN.md section 10,
// "One update per batch").
func TestRunMatchesParentGolden(t *testing.T) {
	leakcheck.Check(t)
	for _, tc := range []struct {
		name, policy string
		epochs       int
		// rStart and rEnd override the elastic range when non-zero.
		rStart, rEnd float64
		want         uint64
	}{
		{name: "spider", policy: "spider", epochs: 3, want: 0x7de657736a647f49},
		{name: "baseline", policy: "baseline", epochs: 3, want: 0xf4b6028e31a822ee},
		{name: "shade", policy: "shade", epochs: 3, want: 0x1561f2282b9e2d28},
		{name: "icache", policy: "icache", epochs: 3, want: 0x29c065979b436979},
		{name: "spider-imp", policy: "spider-imp", epochs: 3, want: 0xa4baea5609203968},
		{name: "icache-imp", policy: "icache-imp", epochs: 3, want: 0xb62533660739e0cd},
		{name: "lfu", policy: "lfu", epochs: 3, want: 0xa400a78bc0debf60},
		{name: "coordl", policy: "coordl", epochs: 3, want: 0xb713538c4bf5e8ea},
		// Table 6's static 90% split: Eq. 8 with r_end = r_start.
		{name: "spider-static", policy: "spider", epochs: 8, rStart: 0.9, rEnd: 0.9, want: 0x1e1b657bd3976257},
		// Long enough for β to latch (Eq. 5), so Eqs. 6-8 move the ratio.
		{name: "spider-latched", policy: "spider", epochs: 8, want: 0x7b768659cfbd8a5f},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := pipelineConfig(t, tc.epochs)
			res := runWith(t, cfg, func() policy.Policy {
				pol, err := experiments.BuildPolicy(tc.policy, experiments.PolicyParams{
					Dataset: cfg.Dataset, Capacity: 80, Epochs: cfg.Epochs, Seed: 11,
					RStart: tc.rStart, REnd: tc.rEnd,
				})
				if err != nil {
					t.Fatal(err)
				}
				return pol
			})
			if tc.name == "spider-latched" {
				if last := res.Epochs[len(res.Epochs)-1].ImpRatio; last >= 0.9 {
					t.Fatalf("final imp-ratio %g: β never latched", last)
				}
			}
			h := fnv.New64a()
			var buf [8]byte
			put := func(bits uint64) {
				binary.LittleEndian.PutUint64(buf[:], bits)
				h.Write(buf[:])
			}
			for _, e := range res.Epochs {
				v := reflect.ValueOf(e)
				for i := 0; i < v.NumField(); i++ {
					switch f := v.Field(i); f.Kind() {
					case reflect.Int, reflect.Int64:
						put(uint64(f.Int()))
					case reflect.Float64:
						put(math.Float64bits(f.Float()))
					default:
						t.Fatalf("EpochStats.%s: unhashed kind %s", v.Type().Field(i).Name, f.Kind())
					}
				}
			}
			put(math.Float64bits(res.FinalAcc))
			if got := h.Sum64(); got != tc.want {
				t.Fatalf("run hash %#x, want %#x", got, tc.want)
			}
		})
	}
}

// faultyPolicy wraps a policy to inject a fault: BackpropWeights returns
// one weight whatever the batch size when shortWeights is set, and the
// panicAt-th Lookup panics when panicAt > 0.
type faultyPolicy struct {
	policy.Policy
	shortWeights     bool
	lookups, panicAt int
}

func (p *faultyPolicy) Lookup(id int) policy.Lookup {
	p.lookups++
	if p.lookups == p.panicAt {
		panic("loader fault")
	}
	return p.Policy.Lookup(id)
}

func (p *faultyPolicy) BackpropWeights(fb []policy.Feedback) []float64 {
	if p.shortWeights {
		return []float64{1}
	}
	return p.Policy.BackpropWeights(fb)
}

// TestBackwardPanicPropagates checks clean shutdown on error. A panic on
// the backward goroutine must resurface on Run's caller's stack, where it
// can be recovered, not crash the process detached; a panic while serving
// the next batch must not leave the running backward goroutine behind.
func TestBackwardPanicPropagates(t *testing.T) {
	for _, tc := range []struct {
		name string
		pol  faultyPolicy
		want string
	}{
		{"short weights", faultyPolicy{shortWeights: true}, "nn: 1 backprop weights for a batch of 64"},
		// Batch size 64 on 400 samples: lookup 65 is the first of batch 1,
		// served while batch 0's backward runs.
		{"lookup", faultyPolicy{panicAt: 65}, "loader fault"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			leakcheck.Check(t)
			inner, err := policy.NewBaselineLRU(400, 80, 5)
			if err != nil {
				t.Fatal(err)
			}
			pol := tc.pol
			pol.Policy = inner
			defer func() {
				if r := recover(); r != tc.want {
					t.Fatalf("recovered %v, want %q", r, tc.want)
				}
			}()
			_, _ = trainer.Run(pipelineConfig(t, 1), &pol)
			t.Fatal("run completed despite the fault")
		})
	}
}

// BenchmarkEpoch is one end-to-end training epoch of the spider policy.
func BenchmarkEpoch(b *testing.B) {
	cfg := pipelineConfig(b, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pol, err := experiments.BuildPolicy("spider", experiments.PolicyParams{
			Dataset: cfg.Dataset, Capacity: 200, Epochs: 1, Seed: 11,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := trainer.Run(cfg, pol); err != nil {
			b.Fatal(err)
		}
	}
}
