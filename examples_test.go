package spidercache_test

import (
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// runExample runs `go run ./examples/<name>` and returns its output.
func runExample(t *testing.T, name string) string {
	t.Helper()
	if testing.Short() {
		t.Skip("runs a whole example program")
	}
	out, err := exec.Command("go", "run", "./examples/"+name).CombinedOutput()
	if err != nil {
		t.Fatalf("go run ./examples/%s: %v\n%s", name, err, out)
	}
	return string(out)
}

// TestQuickstartPrintsREADMEOutput runs the quickstart and checks that it
// prints, byte for byte, the output README.md shows for it.
func TestQuickstartPrintsREADMEOutput(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	block := regexp.MustCompile("(?s)go run ./examples/quickstart\n```\n\n```\n(.*?)```\n").FindSubmatch(readme)
	if block == nil {
		t.Fatal("README.md has no output block after `go run ./examples/quickstart`")
	}
	if got, want := runExample(t, "quickstart"), string(block[1]); got != want {
		t.Errorf("quickstart printed\n%s\nREADME.md shows\n%s", got, want)
	}
}

// TestCustomPolicyRacesSpiderCache runs the custom-policy example and checks
// its table: one row per policy, and SpiderCache ahead of the
// popularity oracle on hit ratio, the point the example closes on.
func TestCustomPolicyRacesSpiderCache(t *testing.T) {
	out := runExample(t, "custompolicy")
	row := regexp.MustCompile(`(?m)^(OraclePopularity|SpiderCache)\s+([\d.]+)\s+([\d.]+)\s+\S+s$`)
	hit := map[string]float64{}
	for _, m := range row.FindAllStringSubmatch(out, -1) {
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		hit[m[1]] = v
	}
	if len(hit) != 2 || !strings.HasPrefix(out, "policy ") {
		t.Fatalf("custompolicy printed no two-row policy table:\n%s", out)
	}
	if hit["SpiderCache"] <= hit["OraclePopularity"] {
		t.Errorf("SpiderCache hit %.1f%% not above the oracle's %.1f%%:\n%s",
			hit["SpiderCache"], hit["OraclePopularity"], out)
	}
}
