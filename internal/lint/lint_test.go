package lint

import (
	"strings"
	"testing"
)

// fixture loads a synthetic module "fix" from in-memory sources and fails
// the test on loader errors. Type errors are left in place: Run surfaces
// them as "typecheck" diagnostics, which wantNone/wantDiag will trip over,
// so a broken fixture fails loudly instead of silently passing.
func fixture(t *testing.T, pkgs map[string]map[string]string) *Module {
	t.Helper()
	m, err := LoadSources("fix", pkgs)
	if err != nil {
		t.Fatalf("LoadSources: %v", err)
	}
	return m
}

// runNamed runs exactly the named checks over m.
func runNamed(t *testing.T, m *Module, cfg Config, names ...string) []Diagnostic {
	t.Helper()
	byName := map[string]*Check{}
	for _, c := range Checks() {
		byName[c.Name] = c
	}
	var cs []*Check
	for _, n := range names {
		c, ok := byName[n]
		if !ok {
			t.Fatalf("unknown check %q", n)
		}
		cs = append(cs, c)
	}
	return Run(m, cfg, cs)
}

// wantDiag asserts exactly `count` diagnostics from `check` whose message
// contains substr.
func wantDiag(t *testing.T, diags []Diagnostic, check, substr string, count int) {
	t.Helper()
	n := 0
	for _, d := range diags {
		if d.Check == check && strings.Contains(d.Message, substr) {
			n++
		}
	}
	if n != count {
		t.Errorf("want %d %s diagnostic(s) containing %q, got %d; all diagnostics:\n%s",
			count, check, substr, n, formatDiags(diags))
	}
}

// wantNone asserts the run produced no diagnostics at all.
func wantNone(t *testing.T, diags []Diagnostic) {
	t.Helper()
	if len(diags) != 0 {
		t.Errorf("want no diagnostics, got %d:\n%s", len(diags), formatDiags(diags))
	}
}

func formatDiags(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		b.WriteString("  " + d.String() + "\n")
	}
	if b.Len() == 0 {
		return "  (none)\n"
	}
	return b.String()
}

func TestCheckNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range Checks() {
		if c.Name == "" || c.Run == nil {
			t.Errorf("check %+v is missing a name or run hook", c)
		}
		if seen[c.Name] {
			t.Errorf("duplicate check name %q", c.Name)
		}
		seen[c.Name] = true
	}
}

func TestDirectiveDiagnostics(t *testing.T) {
	m := fixture(t, map[string]map[string]string{
		"app": {"app.go": `package app

//lint:nolint determinism not a real verb
func A() {}

//lint:ignore nosuchcheck some reason
func B() {}

//lint:ignore determinism
func C() {}

//lint:ignore
func D() {}
`},
	})
	diags := runNamed(t, m, DefaultConfig(), "determinism")
	wantDiag(t, diags, "lintdirective", "unknown directive //lint:nolint", 1)
	wantDiag(t, diags, "lintdirective", `unknown check "nosuchcheck"`, 1)
	wantDiag(t, diags, "lintdirective", "needs a reason", 1)
	wantDiag(t, diags, "lintdirective", "needs a check name and a reason", 1)
}

func TestSuppressionPlacement(t *testing.T) {
	cfg := Config{DeterministicPkgs: []string{"det"}}
	m := fixture(t, map[string]map[string]string{
		"det": {"det.go": `package det

import "time"

// Suppressed: directive on the line above the finding.
func Above() time.Time {
	//lint:ignore determinism fixture exercises line-above suppression
	return time.Now()
}

// Suppressed: directive trailing on the same line.
func SameLine() time.Time {
	return time.Now() //lint:ignore determinism fixture exercises same-line suppression
}

// Not suppressed: two lines away is out of range.
func TooFar() time.Time {
	//lint:ignore determinism fixture directive is too far away

	return time.Now()
}
`},
	})
	diags := runNamed(t, m, cfg, "determinism")
	wantDiag(t, diags, "determinism", "time.Now", 1)
}

// TestUnusedDirectiveIsReported: an ignore for a check that ran but matched
// no finding is itself a finding, so a stale suppression cannot outlive the
// code it excused; one for a check that did not run is left alone.
func TestUnusedDirectiveIsReported(t *testing.T) {
	cfg := Config{DeterministicPkgs: []string{"det"}}
	m := fixture(t, map[string]map[string]string{
		"det": {"det.go": `package det

import "time"

func Used() time.Time {
	//lint:ignore determinism fixture models telemetry-only timing
	return time.Now()
}

func Stale() int {
	//lint:ignore determinism the time.Now this excused is gone
	return 1
}

func NotRun() int {
	//lint:ignore errcheck errcheck does not run here
	return 2
}
`},
	})
	diags := runNamed(t, m, cfg, "determinism")
	wantDiag(t, diags, "lintdirective", "//lint:ignore determinism suppresses nothing", 1)
	if len(diags) != 1 {
		t.Errorf("want only the stale directive reported, got:\n%s", formatDiags(diags))
	}
}

func TestSuppressionIsPerCheck(t *testing.T) {
	cfg := Config{DeterministicPkgs: []string{"det"}, ErrcheckPkgs: []string{"det"}}
	m := fixture(t, map[string]map[string]string{
		"det": {"det.go": `package det

import (
	"fmt"
	"io"
	"time"
)

// The errcheck ignore must not hide the determinism finding on the same line.
func Mixed(w io.Writer) {
	//lint:ignore errcheck fixture suppresses only the write
	fmt.Fprintf(w, "%v", time.Now())
}
`},
	})
	diags := runNamed(t, m, cfg, "determinism", "errcheck")
	wantDiag(t, diags, "determinism", "time.Now", 1)
	wantDiag(t, diags, "errcheck", "Fprintf", 0)
}

func TestTypeErrorsAreReported(t *testing.T) {
	m := fixture(t, map[string]map[string]string{
		"bad": {"bad.go": `package bad

func Broken() int { return "not an int" }
`},
	})
	diags := runNamed(t, m, DefaultConfig(), "determinism")
	wantDiag(t, diags, "typecheck", "", 1)
}

func TestPathMatches(t *testing.T) {
	cases := []struct {
		rel      string
		patterns []string
		want     bool
	}{
		{"internal/kvserver", []string{"internal/kvserver"}, true},
		{"internal/kvserver", []string{"kvserver"}, true},
		{"internal/kvserverx", []string{"kvserver"}, false},
		{"internal/tensor", []string{"internal/kvserver"}, false},
		{"internal/tensor", nil, false},
	}
	for _, c := range cases {
		if got := pathMatches(c.rel, c.patterns); got != c.want {
			t.Errorf("pathMatches(%q, %v) = %v, want %v", c.rel, c.patterns, got, c.want)
		}
	}
}
