package experiments

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// tinyOptions keeps experiment smoke tests fast on one CPU.
func tinyOptions() Options {
	return Options{Scale: 0.06, EpochOverride: 2, Seed: 5}
}

func TestListAndAliases(t *testing.T) {
	ids := List()
	if len(ids) != len(registry) {
		t.Fatalf("List returned %d ids", len(ids))
	}
	for alias, canonical := range aliases {
		if _, ok := registry[canonical]; !ok {
			t.Errorf("alias %s points to unknown %s", alias, canonical)
		}
	}
	if _, err := Run("nope", tinyOptions()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestResultsNameLiveExperiments keeps results/ in step with the registry:
// a deleted experiment takes its outputs with it, so every report header
// and every per-experiment file name must resolve to a registered id.
func TestResultsNameLiveExperiments(t *testing.T) {
	files, err := filepath.Glob("../../results/*.txt")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no results/*.txt found")
	}
	known := func(id string) bool {
		_, reg := registry[id]
		_, alias := aliases[id]
		return reg || alias
	}
	header := regexp.MustCompile(`(?m)^=== ([^:\s]+):`)
	fileID := regexp.MustCompile(`^results_(.+)_scale[^_]*\.txt$`)
	for _, f := range files {
		if m := fileID.FindStringSubmatch(filepath.Base(f)); m != nil && !known(m[1]) {
			t.Errorf("%s names unknown experiment %q", f, m[1])
		}
		body, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range header.FindAllStringSubmatch(string(body), -1) {
			if !known(m[1]) {
				t.Errorf("%s: section %q names no registered experiment", f, m[1])
			}
		}
	}
}

func TestAliasResolution(t *testing.T) {
	a, err := Run("fig15", tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if a.ID != "table4" {
		t.Fatalf("fig15 resolved to %s", a.ID)
	}
}

func TestFig11Analytic(t *testing.T) {
	rep, err := Fig11(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) != 1 || len(rep.Tables[0].Rows) != 11 {
		t.Fatalf("unexpected table shape")
	}
	// First row (t=0) must be 0.9 for all u; last row (t=T) 0.8.
	first, last := rep.Tables[0].Rows[0], rep.Tables[0].Rows[10]
	for _, cell := range first[1:] {
		if cell != "0.9000" {
			t.Fatalf("t=0 ratio %s", cell)
		}
	}
	for _, cell := range last[1:] {
		if cell != "0.8000" {
			t.Fatalf("t=T ratio %s", cell)
		}
	}
}

func TestTable2StorageEfficiency(t *testing.T) {
	rep, err := Table2(Options{Scale: 0.2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	tb := rep.Tables[0]
	if len(tb.Rows) != 6 {
		t.Fatalf("%d dataset rows", len(tb.Rows))
	}
	// Every compression ratio must be > 100x (the paper reports 622x+).
	for _, row := range tb.Rows {
		ratio := row[4]
		if !strings.HasSuffix(ratio, "x") {
			t.Fatalf("ratio cell %q", ratio)
		}
	}
}

func TestBuildPolicyRegistry(t *testing.T) {
	ds, err := cifar10(Options{Scale: 0.05, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range PolicyNames() {
		p, err := BuildPolicy(name, PolicyParams{Dataset: ds, Capacity: 10, Epochs: 3, Seed: 1})
		if err != nil {
			t.Fatalf("BuildPolicy(%s): %v", name, err)
		}
		if p.Name() == "" {
			t.Fatalf("policy %s has empty name", name)
		}
		if displayName(name) == "" {
			t.Fatalf("displayName(%s) empty", name)
		}
	}
	if _, err := BuildPolicy("bogus", PolicyParams{Dataset: ds}); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestFig3bSmoke(t *testing.T) {
	rep, err := Run("fig3b", tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables[0].Rows) != 4 {
		t.Fatalf("fig3b rows %d", len(rep.Tables[0].Rows))
	}
	if rep.CSV() == "" || rep.String() == "" {
		t.Fatal("report renders empty")
	}
}

func TestTable1Smoke(t *testing.T) {
	rep, err := Run("table1", tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables[0].Rows) != 4 {
		t.Fatalf("table1 rows %d", len(rep.Tables[0].Rows))
	}
}

// TestRunAllSmoke executes every experiment at miniature scale, verifying
// each produces populated tables and notes. This is the coverage backstop
// for the whole harness; the real numbers come from `spiderbench`.
func TestRunAllSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	reps, err := RunAll(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != len(registry) {
		t.Fatalf("RunAll returned %d reports", len(reps))
	}
	for _, rep := range reps {
		if len(rep.Tables) == 0 {
			t.Errorf("%s: no tables", rep.ID)
		}
		for _, tb := range rep.Tables {
			if len(tb.Rows) == 0 {
				t.Errorf("%s: empty table %q", rep.ID, tb.Title)
			}
		}
		if rep.Title == "" {
			t.Errorf("%s: no title", rep.ID)
		}
		if out := rep.String(); len(out) < 40 {
			t.Errorf("%s: suspiciously short render", rep.ID)
		}
	}
}

func TestCapacityFor(t *testing.T) {
	ds, _ := cifar10(Options{Scale: 0.05, Seed: 1})
	if c := capacityFor(ds, 0.5); c != ds.Len()/2 {
		t.Fatalf("capacityFor(0.5) = %d (n=%d)", c, ds.Len())
	}
	if c := capacityFor(ds, 0.000001); c != 1 {
		t.Fatalf("capacity floor = %d", c)
	}
}
