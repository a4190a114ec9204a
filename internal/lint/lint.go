// Package lint is spidercache's project-specific static analyzer: a small,
// self-contained framework (go/parser + go/ast + go/types with the source
// importer — no golang.org/x/tools, so it runs offline) plus a suite of
// checks that mechanically enforce invariants the repository's correctness
// rests on but ordinary tooling cannot see:
//
//   - determinism    — no time.Now / global math/rand / map-order iteration
//     in the packages whose outputs must be bitwise-reproducible
//   - mutexhygiene   — Lock without a reachable Unlock on every return path;
//     RWMutex write-lock held across channel ops or blocking calls
//   - errcheck       — ignored error returns from io/net writes in the
//     serving and cluster packages
//
// Findings are file:line diagnostics; a finding that is intentional is
// suppressed in place with
//
//	//lint:ignore <check> <reason>
//
// on, or on the line above, the flagged line. The reason is mandatory — an
// annotation without one is itself a diagnostic, and so is one that
// suppresses nothing. `go run ./cmd/spiderlint ./...` exits nonzero on any
// finding and is part of the tier-1 verify recipe (see scripts/check.sh).
package lint

import (
	"fmt"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// Check is one analyzer: a name (the //lint:ignore key) and a Run hook
// over the whole module.
type Check struct {
	Name string
	Run  func(*Pass)
}

// Config scopes the path-sensitive checks. Paths are import-path suffixes
// relative to the module root ("internal/tensor" matches
// "spidercache/internal/tensor"); an empty list disables the check.
type Config struct {
	// DeterministicPkgs are the packages whose outputs must be bitwise
	// reproducible: the determinism check applies only there.
	DeterministicPkgs []string
	// ErrcheckPkgs are the packages where ignored io/net write errors are
	// findings.
	ErrcheckPkgs []string
}

// DefaultConfig scopes the checks to this repository's invariants.
func DefaultConfig() Config {
	return Config{
		// The parallel kernels, batch scorer, policy core, trainer and
		// elastic controller must stay bitwise-identical run to run (and
		// parallel-vs-serial); table and experiments render tables whose
		// row order must be stable across runs.
		DeterministicPkgs: []string{
			"internal/tensor",
			"internal/semgraph",
			"internal/core",
			"internal/trainer",
			"internal/elastic",
			"internal/table",
			"internal/experiments",
		},
		// kvserver and faultnet carry every wire write (cluster writes
		// through kvserver's client): a write error dropped there keeps a
		// broken connection in use, and the caller sees a later, vaguer
		// failure or none.
		ErrcheckPkgs: []string{"internal/kvserver", "internal/faultnet"},
	}
}

// Checks returns the full suite in reporting order.
func Checks() []*Check {
	return []*Check{
		determinismCheck(),
		mutexHygieneCheck(),
		errcheckCheck(),
	}
}

// Pass carries one check's run over the module.
type Pass struct {
	Cfg    Config
	Module *Module
	check  *Check
	diags  *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     p.Module.Fset.Position(pos),
		Check:   p.check.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// PackagesMatching returns the module packages whose module-relative path
// matches one of the configured suffix patterns.
func (p *Pass) PackagesMatching(patterns []string) []*Package {
	var out []*Package
	for _, pkg := range p.Module.Packages {
		if pathMatches(pkg.RelPath(p.Module), patterns) {
			out = append(out, pkg)
		}
	}
	return out
}

func pathMatches(rel string, patterns []string) bool {
	for _, pat := range patterns {
		if rel == pat || strings.HasSuffix(rel, "/"+pat) {
			return true
		}
	}
	return false
}

// directiveCheck names the framework's own diagnostics about malformed or
// unused //lint: comments.
const directiveCheck = "lintdirective"

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	pos   token.Position
	check string
	used  bool // matched a finding in this run
}

// Run executes the given checks over the module and returns the surviving
// diagnostics sorted by position. Findings carrying a matching
// //lint:ignore annotation are dropped; malformed annotations, and
// annotations for a check that ran but matched no finding, surface as
// "lintdirective" findings, so a typoed or stale suppression can never
// silently turn a check off.
func Run(m *Module, cfg Config, checks []*Check) []Diagnostic {
	var diags []Diagnostic

	// Type errors make every downstream fact suspect; report them as
	// first-class findings instead of guessing on a broken tree.
	for _, pkg := range m.Packages {
		for _, err := range pkg.TypeErrors {
			d := Diagnostic{Check: "typecheck", Message: err.Error()}
			if te, ok := err.(types.Error); ok {
				d.Pos = te.Fset.Position(te.Pos)
				d.Message = te.Msg
			} else if len(pkg.Files) > 0 {
				d.Pos = m.Fset.Position(pkg.Files[0].Pos())
			}
			diags = append(diags, d)
		}
	}

	var known []string
	for _, c := range Checks() {
		known = append(known, c.Name)
	}
	ignores, dirDiags := collectDirectives(m, known)
	diags = append(diags, dirDiags...)

	ran := map[string]bool{}
	for _, c := range checks {
		pass := &Pass{Cfg: cfg, Module: m, check: c, diags: &diags}
		c.Run(pass)
		ran[c.Name] = true
	}

	kept := diags[:0]
	for _, d := range diags {
		if ig := matchIgnore(ignores, d); ig != nil {
			ig.used = true
			continue
		}
		kept = append(kept, d)
	}
	diags = kept
	for _, igs := range ignores {
		for _, ig := range igs {
			if ran[ig.check] && !ig.used {
				diags = append(diags, Diagnostic{Pos: ig.pos, Check: directiveCheck,
					Message: fmt.Sprintf("//lint:ignore %s suppresses nothing on this line or the next; delete it", ig.check)})
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	return diags
}

// collectDirectives parses every //lint: comment in the module, returning
// the valid ignore directives keyed by file, plus diagnostics for malformed
// or unknown-check directives; known names the suite's checks.
func collectDirectives(m *Module, known []string) (map[string][]ignoreDirective, []Diagnostic) {
	ignores := map[string][]ignoreDirective{}
	var diags []Diagnostic
	for _, pkg := range m.Packages {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, "//lint:")
					if !ok {
						continue
					}
					pos := m.Fset.Position(c.Pos())
					verb, args, _ := strings.Cut(rest, " ")
					if verb != "ignore" {
						diags = append(diags, Diagnostic{Pos: pos, Check: directiveCheck,
							Message: fmt.Sprintf("unknown directive //lint:%s (only //lint:ignore <check> <reason> is supported)", verb)})
						continue
					}
					checkName, reason, _ := strings.Cut(strings.TrimSpace(args), " ")
					reason = strings.TrimSpace(reason)
					switch {
					case checkName == "":
						diags = append(diags, Diagnostic{Pos: pos, Check: directiveCheck,
							Message: "//lint:ignore needs a check name and a reason"})
					case !slices.Contains(known, checkName):
						diags = append(diags, Diagnostic{Pos: pos, Check: directiveCheck,
							Message: fmt.Sprintf("//lint:ignore names unknown check %q (known: %s)", checkName, strings.Join(known, ", "))})
					case reason == "":
						diags = append(diags, Diagnostic{Pos: pos, Check: directiveCheck,
							Message: fmt.Sprintf("//lint:ignore %s needs a reason", checkName)})
					default:
						ignores[pos.Filename] = append(ignores[pos.Filename], ignoreDirective{pos: pos, check: checkName})
					}
				}
			}
		}
	}
	return ignores, diags
}

// matchIgnore returns the ignore annotation d carries — a matching
// directive on the same line or the line directly above — or nil.
func matchIgnore(ignores map[string][]ignoreDirective, d Diagnostic) *ignoreDirective {
	igs := ignores[d.Pos.Filename]
	for i := range igs {
		if ig := &igs[i]; ig.check == d.Check && (ig.pos.Line == d.Pos.Line || ig.pos.Line == d.Pos.Line-1) {
			return ig
		}
	}
	return nil
}
