package table

import (
	"math"
	"strings"
	"testing"
)

func TestStats(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if Mean(xs) != 2.5 {
		t.Fatalf("Mean = %g", Mean(xs))
	}
	if math.Abs(Std(xs)-math.Sqrt(1.25)) > 1e-12 {
		t.Fatalf("Std = %g", Std(xs))
	}
	if Mean(nil) != 0 || Std(nil) != 0 {
		t.Fatal("empty-input stats nonzero")
	}
	if Std([]float64{5}) != 0 {
		t.Fatal("single-point std nonzero")
	}
}

func TestTableRendering(t *testing.T) {
	tb := New("My Title", "Name", "Value")
	tb.AddRow("alpha", "1")
	tb.AddRow("beta") // short row padded
	out := tb.String()
	if !strings.Contains(out, "My Title") {
		t.Fatal("title missing")
	}
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "beta") {
		t.Fatal("rows missing")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("unexpected line count %d:\n%s", len(lines), out)
	}
	// Columns align: both data rows start with padded first column.
	if len(lines[3]) < len("alpha") {
		t.Fatal("row truncated")
	}
}

func TestCSVQuoting(t *testing.T) {
	tb := New("", "A", "B")
	tb.AddRow("has,comma", `has"quote`)
	csv := tb.CSV()
	if !strings.Contains(csv, `"has,comma"`) {
		t.Fatalf("comma cell not quoted: %s", csv)
	}
	if !strings.Contains(csv, `"has""quote"`) {
		t.Fatalf("quote cell not escaped: %s", csv)
	}
	if !strings.HasPrefix(csv, "A,B\n") {
		t.Fatalf("header wrong: %s", csv)
	}
}
