package spidercache

// API-compat tests for the v1 entry points: Train(TrainConfig) must keep
// compiling and behave identically to the redesigned TrainWith API, and the
// string format names must render exactly as the typed Format values.

import (
	"math"
	"strings"
	"testing"

	"spidercache/internal/telemetry"
)

// TestTrainConfigCompat pins the old struct API against the functional
// options: identical settings must produce identical runs.
func TestTrainConfigCompat(t *testing.T) {
	ds := tinyCIFAR(t)
	old, err := Train(TrainConfig{
		Dataset: ds,
		Policy:  PolicySpiderCache,
		Epochs:  2,
		Seed:    7,
	})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := TrainWith(ds,
		WithPolicy(PolicySpiderCache),
		WithEpochs(2),
		WithSeed(7),
	)
	if err != nil {
		t.Fatal(err)
	}
	if old.Policy != opt.Policy || len(old.Epochs) != len(opt.Epochs) {
		t.Fatalf("shape mismatch: %s/%d vs %s/%d", old.Policy, len(old.Epochs), opt.Policy, len(opt.Epochs))
	}
	if old.TotalTime != opt.TotalTime {
		t.Fatalf("TotalTime %v != %v", old.TotalTime, opt.TotalTime)
	}
	if math.Abs(old.FinalAcc-opt.FinalAcc) > 1e-12 {
		t.Fatalf("FinalAcc %v != %v", old.FinalAcc, opt.FinalAcc)
	}
	for i := range old.Epochs {
		if old.Epochs[i] != opt.Epochs[i] {
			t.Fatalf("epoch %d diverged: %+v vs %+v", i, old.Epochs[i], opt.Epochs[i])
		}
	}
}

// TestRunExperimentCompat pins the string format names (what the CLI's
// -format flag passes through ParseFormat) against the typed Format values,
// and checks the two renderings differ.
func TestRunExperimentCompat(t *testing.T) {
	render := func(name string) string {
		t.Helper()
		f, err := ParseFormat(name)
		if err != nil {
			t.Fatal(err)
		}
		out, err := RenderExperiment("fig11", 0.1, 2, 1, f)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	text, err := RenderExperiment("fig11", 0.1, 2, 1, FormatText)
	if err != nil {
		t.Fatal(err)
	}
	if render("text") != text {
		t.Fatal(`ParseFormat("text") rendering != RenderExperiment(FormatText)`)
	}
	csv, err := RenderExperiment("fig11", 0.1, 2, 1, FormatCSV)
	if err != nil {
		t.Fatal(err)
	}
	if render("csv") != csv {
		t.Fatal(`ParseFormat("csv") rendering != RenderExperiment(FormatCSV)`)
	}
	if csv == text {
		t.Fatal("csv and text renderings should differ")
	}
}

func TestRenderExperimentBadFormat(t *testing.T) {
	if _, err := RenderExperiment("fig11", 0.1, 2, 1, Format(99)); err == nil {
		t.Fatal("invalid Format accepted")
	}
}

func TestParseFormat(t *testing.T) {
	for in, want := range map[string]Format{"text": FormatText, "CSV": FormatCSV, "": FormatText} {
		got, err := ParseFormat(in)
		if err != nil || got != want {
			t.Fatalf("ParseFormat(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseFormat("xml"); err == nil {
		t.Fatal("ParseFormat accepted xml")
	}
	if FormatText.String() != "text" || FormatCSV.String() != "csv" {
		t.Fatal("Format.String wrong")
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

// TestTrainRejectsUnknownPolicyEarly verifies Train fails with the helpful
// top-level error instead of a deep-layer one.
func TestTrainRejectsUnknownPolicyEarly(t *testing.T) {
	ds := tinyCIFAR(t)
	_, err := Train(TrainConfig{Dataset: ds, Policy: "no-such-policy", Epochs: 1})
	if err == nil {
		t.Fatal("unknown policy accepted")
	}
	if !strings.Contains(err.Error(), "want one of") {
		t.Fatalf("error does not list accepted names: %v", err)
	}
}

// TestExplicitZeroExpressible covers the zero-value ambiguity the options
// API fixes: an explicit zero is honoured (or rejected), never silently
// replaced by a default.
func TestExplicitZeroExpressible(t *testing.T) {
	ds := tinyCIFAR(t)

	// Explicit zero cache: a genuine no-cache run — every lookup misses.
	// Two epochs, because even a caching run misses everything on first
	// touch; the cache only pays off from epoch 2.
	res, err := TrainWith(ds,
		WithPolicy(PolicyBaseline),
		WithEpochs(2),
		WithCacheFraction(0),
	)
	if err != nil {
		t.Fatal(err)
	}
	if hr := res.AvgHitRatio(); hr != 0 {
		t.Fatalf("cache-less run hit ratio = %v, want 0", hr)
	}
	// The struct API cannot express this: zero means "default 0.2".
	legacy, err := Train(TrainConfig{Dataset: ds, Policy: PolicyBaseline, Epochs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if legacy.AvgHitRatio() == 0 {
		t.Fatal("legacy default-cache run unexpectedly missed everything")
	}

	// Explicit zero epochs: rejected, not reinterpreted as 30.
	if _, err := TrainWith(ds, WithEpochs(0)); err == nil {
		t.Fatal("WithEpochs(0) silently accepted")
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
