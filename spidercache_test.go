package spidercache

import (
	"strings"
	"testing"
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
	res, err := Train(TrainConfig{Dataset: tinyCIFAR(t), Epochs: 3})
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
		res, err := Train(TrainConfig{Dataset: ds, Policy: pol, Epochs: 2, Seed: 9})
		if err != nil {
			t.Fatalf("Train(%s): %v", pol, err)
		}
		if len(res.Epochs) != 2 {
			t.Fatalf("%s: epochs %d", pol, len(res.Epochs))
		}
	}
}

func TestTrainValidation(t *testing.T) {
	if _, err := Train(TrainConfig{}); err == nil {
		t.Fatal("nil dataset accepted")
	}
	if _, err := Train(TrainConfig{Dataset: tinyCIFAR(t), Policy: "bogus", Epochs: 1}); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if _, err := Train(TrainConfig{Dataset: tinyCIFAR(t), Model: "LeNet", Epochs: 1}); err == nil {
		t.Fatal("unknown model accepted")
	}
	// Out-of-range values are errors for every policy, on Train as on
	// TrainWith, never a panic from deep inside a cache constructor.
	ds := tinyCIFAR(t)
	for _, pol := range Policies() {
		for _, bad := range []TrainConfig{
			{CacheFraction: -0.5},
			{CacheFraction: 1.5},
			{Threads: -3},
		} {
			bad.Dataset, bad.Policy, bad.Epochs = ds, pol, 1
			if _, err := Train(bad); err == nil {
				t.Errorf("%s: Train accepted CacheFraction %v Threads %d", pol, bad.CacheFraction, bad.Threads)
			}
		}
	}
}

func TestTrainElasticKnobs(t *testing.T) {
	res, err := Train(TrainConfig{
		Dataset: tinyCIFAR(t), Epochs: 2, RStart: 0.85, REnd: 0.6, StaticRatio: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Epochs[1].ImpRatio; got != 0.85 {
		t.Fatalf("static imp ratio %g, want 0.85", got)
	}
}

func TestRunExperimentFacade(t *testing.T) {
	out, err := RenderExperiment("fig11", 0.1, 2, 1, FormatText)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "fig11") {
		t.Fatalf("rendered report lacks id:\n%s", out)
	}
	csv, err := RenderExperiment("fig11", 0.1, 2, 1, FormatCSV)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv, ",") {
		t.Fatal("CSV output has no commas")
	}
	if _, err := RenderExperiment("bogus", 1, 0, 1, FormatText); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestDeterministicFacadeRuns(t *testing.T) {
	run := func() *Result {
		res, err := Train(TrainConfig{Dataset: tinyCIFAR(t), Epochs: 2, Seed: 11})
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

func TestResultWriteCSV(t *testing.T) {
	res, err := Train(TrainConfig{Dataset: tinyCIFAR(t), Epochs: 2, Seed: 5})
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
