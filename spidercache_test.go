package spidercache

import (
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"spidercache/internal/telemetry"
)

func tinyCIFAR(t *testing.T) *Dataset {
	t.Helper()
	ds, err := NewCIFAR10(0.06, 3)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestDatasetConstructors(t *testing.T) {
	for _, build := range []func() (*Dataset, error){
		func() (*Dataset, error) { return NewCIFAR10(0.05, 1) },
		func() (*Dataset, error) { return NewCIFAR100(0.2, 1) },
		func() (*Dataset, error) { return NewImageNet(0.1, 1) },
	} {
		ds, err := build()
		if err != nil {
			t.Fatal(err)
		}
		if ds.Len() == 0 || ds.Classes() < 2 || ds.Name() == "" || ds.TotalBytes() <= 0 {
			t.Fatalf("dataset accessors wrong: %s len=%d", ds.Name(), ds.Len())
		}
	}
}

func TestRegistries(t *testing.T) {
	if len(Policies()) != 8 {
		t.Fatalf("Policies() = %v", Policies())
	}
	if len(Models()) != 4 {
		t.Fatalf("Models() = %v", Models())
	}
	if len(Experiments()) == 0 {
		t.Fatal("Experiments() empty")
	}
}

func TestTrainDefaults(t *testing.T) {
	res, err := TrainWith(tinyCIFAR(t), WithEpochs(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "SpiderCache" {
		t.Fatalf("default policy %q", res.Policy)
	}
	if res.Model != "ResNet18" || res.Dataset != "CIFAR10-like" {
		t.Fatalf("defaults wrong: %s/%s", res.Model, res.Dataset)
	}
	if len(res.Epochs) != 3 {
		t.Fatalf("epochs %d", len(res.Epochs))
	}
	if res.TotalTime <= 0 || res.BestAcc <= 0 {
		t.Fatal("degenerate result")
	}
	for _, e := range res.Epochs {
		if e.HitRatio < 0 || e.HitRatio > 1 || e.SubRatio > e.HitRatio {
			t.Fatalf("epoch stats inconsistent: %+v", e)
		}
	}
	if res.AvgHitRatio() < 0 || res.AvgHitRatio() > 1 {
		t.Fatal("AvgHitRatio out of range")
	}
}

func TestTrainEveryPolicy(t *testing.T) {
	ds := tinyCIFAR(t)
	for _, pol := range Policies() {
		res, err := TrainWith(ds, WithPolicy(pol), WithEpochs(2), WithSeed(9))
		if err != nil {
			t.Fatalf("TrainWith(%s): %v", pol, err)
		}
		if len(res.Epochs) != 2 {
			t.Fatalf("%s: epochs %d", pol, len(res.Epochs))
		}
	}
}

func TestTrainValidation(t *testing.T) {
	if _, err := TrainWith(nil); err == nil {
		t.Fatal("nil dataset accepted")
	}
	ds := tinyCIFAR(t)
	if _, err := TrainWith(ds, WithPolicy("bogus"), WithEpochs(1)); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if _, err := TrainWith(ds, WithModel("LeNet"), WithEpochs(1)); err == nil {
		t.Fatal("unknown model accepted")
	}
	// Out-of-range values are errors for every policy, never a panic from
	// deep inside a cache constructor and never a silent default.
	bad := map[string]Option{
		"WithCacheFraction(-0.5)": WithCacheFraction(-0.5),
		"WithCacheFraction(1.5)":  WithCacheFraction(1.5),
		"WithEpochs(0)":           WithEpochs(0),
		"WithBatchSize(0)":        WithBatchSize(0),
		"WithWorkers(0)":          WithWorkers(0),
		// NaN fails every range check written as a negated in-range test.
		"WithCacheFraction(NaN)":      WithCacheFraction(math.NaN()),
		"WithElasticRange(0, 0)":      WithElasticRange(0, 0),
		"WithElasticRange(NaN, 0.8)":  WithElasticRange(math.NaN(), 0.8),
		"WithElasticRange(0.9, NaN)":  WithElasticRange(0.9, math.NaN()),
		"WithElasticRange(0.5, 0.9)":  WithElasticRange(0.5, 0.9),
		"WithElasticRange(1.5, 0.8)":  WithElasticRange(1.5, 0.8),
		"WithElasticRange(0.9, -0.1)": WithElasticRange(0.9, -0.1),
	}
	for _, pol := range Policies() {
		for name, opt := range bad {
			if _, err := TrainWith(ds, WithPolicy(pol), WithEpochs(1), opt); err == nil {
				t.Errorf("%s: TrainWith accepted %s", pol, name)
			}
		}
	}
}

func TestTrainElasticKnobs(t *testing.T) {
	res, err := TrainWith(tinyCIFAR(t), WithEpochs(2), WithElasticRange(0.85, 0.85))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Epochs[1].ImpRatio; got != 0.85 {
		t.Fatalf("static imp ratio %g, want 0.85", got)
	}
}

func TestRunExperimentFacade(t *testing.T) {
	rep, err := GetExperiment("fig11", 0.1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID() != "fig11" || !strings.Contains(rep.Text(), "fig11") {
		t.Fatalf("report lacks id:\n%s", rep.Text())
	}
	if csv := rep.CSV(); !strings.Contains(csv, ",") || csv == rep.Text() {
		t.Fatalf("CSV rendering wrong:\n%s", csv)
	}
	if _, err := GetExperiment("bogus", 1, 0, 1); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if _, err := GetExperiment("fig11", 0, 0, 1); err == nil {
		t.Fatal("scale 0 accepted")
	}
}

func TestDeterministicFacadeRuns(t *testing.T) {
	run := func() *Result {
		res, err := TrainWith(tinyCIFAR(t), WithEpochs(2), WithSeed(11))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.TotalTime != b.TotalTime || a.FinalAcc != b.FinalAcc {
		t.Fatal("same-seed facade runs differ")
	}
}

// TestTrainingIdenticalAcrossCores: the host's core count changes how fast
// a run goes, never what it computes. A spider run at GOMAXPROCS 1 takes
// every serial path (tensor kernels, batch scoring, the ANN index's
// settle); at GOMAXPROCS 4 each of them forks. Their per-epoch CSVs must be
// byte-equal, and the records behind them bit-equal, since the CSV rounds.
func TestTrainingIdenticalAcrossCores(t *testing.T) {
	ds, err := NewCIFAR10(0.3, 3)
	if err != nil {
		t.Fatal(err)
	}
	trainAt := func(procs int) (*Result, string) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		res, err := TrainWith(ds, WithPolicy(PolicySpiderCache), WithEpochs(4), WithSeed(7))
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := res.WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
		return res, b.String()
	}
	one, oneCSV := trainAt(1)
	four, fourCSV := trainAt(4)
	if oneCSV != fourCSV {
		t.Fatalf("GOMAXPROCS 1 and 4 trained differently:\n%s\nvs\n%s", oneCSV, fourCSV)
	}
	if !reflect.DeepEqual(one, four) {
		t.Fatalf("GOMAXPROCS 1 and 4 records differ below the CSV's precision:\n%+v\nvs\n%+v", one, four)
	}
}

func TestResultWriteCSV(t *testing.T) {
	res, err := TrainWith(tinyCIFAR(t), WithEpochs(2), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // comment, header, 2 epochs
		t.Fatalf("CSV lines %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "# policy=SpiderCache") {
		t.Fatalf("comment line %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "epoch,hit_ratio") {
		t.Fatalf("header %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "0,") || !strings.HasPrefix(lines[3], "1,") {
		t.Fatalf("rows wrong:\n%s", out)
	}
}

func TestValidatePolicy(t *testing.T) {
	for _, name := range Policies() {
		if err := ValidatePolicy(name); err != nil {
			t.Fatalf("ValidatePolicy(%s): %v", name, err)
		}
	}
	err := ValidatePolicy("bogus")
	if err == nil {
		t.Fatal("bogus policy accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, `unknown policy "bogus"`) || !strings.Contains(msg, "want one of") || !strings.Contains(msg, PolicySpiderCache) {
		t.Fatalf("unhelpful error: %v", err)
	}
}

// TestTrainRejectsUnknownPolicyEarly verifies TrainWith fails with the
// helpful top-level error instead of a deep-layer one.
func TestTrainRejectsUnknownPolicyEarly(t *testing.T) {
	_, err := TrainWith(tinyCIFAR(t), WithPolicy("no-such-policy"), WithEpochs(1))
	if err == nil {
		t.Fatal("unknown policy accepted")
	}
	if !strings.Contains(err.Error(), "want one of") {
		t.Fatalf("error does not list accepted names: %v", err)
	}
}

// TestExplicitZeroExpressible: an explicit zero is honoured (or rejected),
// never silently replaced by a default.
func TestExplicitZeroExpressible(t *testing.T) {
	ds := tinyCIFAR(t)

	// Explicit zero cache: a genuine no-cache run — every lookup misses,
	// for every policy. Two epochs, because even a caching run misses
	// everything on first touch; the cache only pays off from epoch 2.
	for _, pol := range Policies() {
		res, err := TrainWith(ds, WithPolicy(pol), WithEpochs(2), WithCacheFraction(0))
		if err != nil {
			t.Fatal(err)
		}
		if hr := res.AvgHitRatio(); hr != 0 {
			t.Errorf("%s: cache-less run hit ratio = %v, want 0", pol, hr)
		}
	}

	// Explicit zero seed: a run of its own, not the default seed's.
	zero, err := TrainWith(ds, WithEpochs(2), WithSeed(0))
	if err != nil {
		t.Fatal(err)
	}
	def, err := TrainWith(ds, WithEpochs(2))
	if err != nil {
		t.Fatal(err)
	}
	if zero.TotalTime == def.TotalTime && zero.FinalAcc == def.FinalAcc {
		t.Error("WithSeed(0) reproduced the default seed's run")
	}

	// Explicit zero rEnd: the ratio is free to fall below the default's
	// 0.80 once β latches, so the trajectory is not the default one.
	const latched = 8 // epochs enough for β to latch (Eq. 5)
	toZero, err := TrainWith(ds, WithEpochs(latched), WithElasticRange(0.9, 0))
	if err != nil {
		t.Fatal(err)
	}
	def, err = TrainWith(ds, WithEpochs(latched))
	if err != nil {
		t.Fatal(err)
	}
	last := func(r *Result) float64 { return r.Epochs[len(r.Epochs)-1].ImpRatio }
	if last(toZero) == last(def) {
		t.Errorf("WithElasticRange(0.9, 0) ended at the default run's imp-ratio %v", last(def))
	}
}

// TestTrainWithMetrics verifies the registry option records the serving
// path and elastic trajectory.
func TestTrainWithMetrics(t *testing.T) {
	ds := tinyCIFAR(t)
	reg := telemetry.NewRegistry()
	res, err := TrainWith(ds,
		WithPolicy(PolicySpiderCache),
		WithEpochs(2),
		WithSeed(5),
		WithMetrics(reg),
	)
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	var lookups int64
	for _, src := range []string{"cache", "substitute", "miss"} {
		lookups += snap.Counters[`lookups_total{source="`+src+`"}`]
	}
	wantRequests := int64(2 * ds.Len())
	if lookups != wantRequests {
		t.Fatalf("lookups_total sum = %d, want %d", lookups, wantRequests)
	}
	if got := snap.Gauges["imp_ratio"]; math.Abs(got-res.Epochs[len(res.Epochs)-1].ImpRatio) > 1e-12 {
		t.Fatalf("imp_ratio gauge %v != final epoch ImpRatio %v", got, res.Epochs[len(res.Epochs)-1].ImpRatio)
	}
	remote, ok := snap.Histograms[`fetch_seconds{tier="remote"}`]
	if !ok || remote.Count == 0 || remote.P50 <= 0 || remote.P99 < remote.P50 {
		t.Fatalf("remote fetch histogram wrong: %+v", remote)
	}
	text := reg.Prometheus()
	if !strings.Contains(text, `lookups_total{source="cache"}`) || !strings.Contains(text, "imp_ratio") {
		t.Fatalf("exposition missing serving-path series:\n%s", text)
	}
}
