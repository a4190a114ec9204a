// Package experiments regenerates every table and figure of the paper's
// evaluation (Sections 2, 3, 5 and 6) on the simulated substrate. Each
// experiment returns a Report of paper-style tables; the `spiderbench` CLI
// and the repository's benchmark suite are thin wrappers over this package.
//
// Experiment IDs (see DESIGN.md §4 for the full index):
//
//	fig3a fig3b fig5 fig6a fig6b fig6c          — motivation studies
//	fig11 table1 table2                         — design & overhead analyses
//	table3 fig14 table4 table6 fig17            — evaluation
//
// (fig12 is covered by table1, fig13 by table3, fig15/table5 by table4,
// fig16 by table6.)
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"spidercache/internal/table"
	"spidercache/internal/telemetry"
)

// Options tunes the scale of every experiment.
type Options struct {
	// Scale multiplies dataset sizes and must be positive; 1.0 is the
	// repository default (thousands of samples), tests run smaller.
	Scale float64
	// EpochOverride replaces each experiment's default epoch count when
	// positive; 0 keeps the defaults and a negative value is an error.
	EpochOverride int
	// Seed randomises the whole experiment deterministically; every value,
	// 0 included, is used as given.
	Seed uint64
	// Metrics receives the trainer's serving-path telemetry and the
	// SpiderCache policies' imp_ratio/score_std gauges from every training
	// run the experiment performs; nil disables recording.
	Metrics *telemetry.Registry
}

// epochs resolves an experiment's default epoch count against the override.
func (o Options) epochs(def int) int {
	if o.EpochOverride > 0 {
		return o.EpochOverride
	}
	return def
}

// Report is the output of one experiment.
type Report struct {
	ID     string
	Title  string
	Tables []*table.Table
	// Notes records the paper's expected shape next to what was measured,
	// for EXPERIMENTS.md.
	Notes []string
}

// String renders the report for terminal output.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n\n", r.ID, r.Title)
	for _, t := range r.Tables {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV renders all tables of the report as CSV blocks.
func (r *Report) CSV() string {
	var b strings.Builder
	for _, t := range r.Tables {
		fmt.Fprintf(&b, "# %s\n", t.Title)
		b.WriteString(t.CSV())
		b.WriteByte('\n')
	}
	return b.String()
}

type runner func(Options) (*Report, error)

var registry = map[string]runner{
	"fig3a":  Fig3a,
	"fig3b":  Fig3b,
	"fig5":   Fig5,
	"fig6a":  Fig6a,
	"fig6b":  Fig6b,
	"fig6c":  Fig6c,
	"fig8":   Fig8,
	"fig11":  Fig11,
	"table1": Table1,
	"table2": Table2,
	"table3": Table3,
	"fig14":  Fig14,
	"table4": Table4,
	"table6": Table6,
	"fig17":  Fig17,
	// Beyond the paper: design-choice ablations (DESIGN.md §5) and the
	// wire-protocol semantic-serving threshold sweep (DESIGN.md §9).
	"ablation": Ablation,
	"nget":     NGet,
}

// aliases map alternative paper labels onto canonical experiment IDs.
var aliases = map[string]string{
	"fig12":  "table1",
	"fig13":  "table3",
	"fig15":  "table4",
	"table5": "table4",
	"fig16":  "table6",
}

// List returns all canonical experiment IDs in a stable order.
func List() []string {
	ids := make([]string, 0, len(registry))
	//lint:ignore determinism order-insensitive collect; sorted before returning
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run executes the experiment with the given (possibly aliased) ID.
func Run(id string, opt Options) (*Report, error) {
	if !(opt.Scale > 0) {
		return nil, fmt.Errorf("experiments: scale %v: want > 0", opt.Scale)
	}
	if opt.EpochOverride < 0 {
		return nil, fmt.Errorf("experiments: epoch override %d: want >= 0 (0 = each experiment's default)", opt.EpochOverride)
	}
	canonical := id
	if a, ok := aliases[id]; ok {
		canonical = a
	}
	fn, ok := registry[canonical]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (known: %s)", id, strings.Join(List(), ", "))
	}
	return fn(opt)
}
