package experiments

import (
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
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
// it holds exactly one file, rendered by one `-exp all` run, so it has a
// section for every registered experiment and none for a deleted one.
func TestResultsNameLiveExperiments(t *testing.T) {
	files, err := filepath.Glob("../../results/*.txt")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Fatalf("results/ holds %d .txt files, want exactly one: %v", len(files), files)
	}
	body, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	header := regexp.MustCompile(`(?m)^=== ([^:\s]+):`)
	seen := map[string]bool{}
	for _, m := range header.FindAllStringSubmatch(string(body), -1) {
		if _, ok := registry[m[1]]; !ok {
			t.Errorf("%s: section %q names no registered experiment", files[0], m[1])
		}
		seen[m[1]] = true
	}
	for _, id := range List() {
		if !seen[id] {
			t.Errorf("%s has no section for experiment %q", files[0], id)
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
	for _, id := range List() {
		rep, err := Run(id, tinyOptions())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
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

// TestRunHonoursExplicitOptions: Run uses every seed as given, 0 included,
// and refuses a scale or epoch override it cannot honour instead of
// silently running the defaults.
func TestRunHonoursExplicitOptions(t *testing.T) {
	render := func(seed uint64) string {
		t.Helper()
		rep, err := Run("table2", Options{Scale: 0.1, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return rep.String()
	}
	if render(0) == render(42) {
		t.Error("seed 0 rendered seed 42's report")
	}
	for _, bad := range []Options{
		{Scale: 0, Seed: 1},
		{Scale: -1, Seed: 1},
		{Scale: math.NaN(), Seed: 1},
		{Scale: 0.1, EpochOverride: -5, Seed: 1},
	} {
		if _, err := Run("table2", bad); err == nil {
			t.Errorf("Run accepted scale %v, epoch override %d", bad.Scale, bad.EpochOverride)
		}
	}
}

// TestFig8PopulationTable checks Fig 8's accuracy table: one row per
// planted population, counts that cover the held-out set, and accuracies
// that are percentages (or "-" for a population the held-out set lacks).
func TestFig8PopulationTable(t *testing.T) {
	opt := tinyOptions()
	rep, err := Run("fig8", opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) != 2 {
		t.Fatalf("fig8 has %d tables, want 2", len(rep.Tables))
	}
	ds, err := cifar10(opt)
	if err != nil {
		t.Fatal(err)
	}
	rows := rep.Tables[1].Rows
	if len(rows) != len(populations) {
		t.Fatalf("%d population rows, want %d", len(rows), len(populations))
	}
	total := 0
	for i, row := range rows {
		if row[0] != populations[i].String() {
			t.Errorf("row %d is %q, want %q", i, row[0], populations[i])
		}
		n, err := strconv.Atoi(row[1])
		if err != nil {
			t.Fatalf("%s: n %q", row[0], row[1])
		}
		total += n
		for _, cell := range row[2:] {
			if n == 0 && cell == "-" {
				continue
			}
			if v, err := strconv.ParseFloat(cell, 64); err != nil || v < 0 || v > 100 {
				t.Errorf("%s: accuracy %q not in [0, 100]", row[0], cell)
			}
		}
	}
	if total != len(ds.TestLabels) {
		t.Errorf("population n sums to %d, want the held-out size %d", total, len(ds.TestLabels))
	}
}
