package spidercache_test

// The docs test keeps README.md, DESIGN.md and EXPERIMENTS.md describing
// the code that exists. It fails when one of them names a cmd/, internal/
// or examples/ path that is not in the tree, passes a command a flag the
// command does not register, names in prose a flag no command registers,
// or names an experiment or policy id that is not registered. Text under
// a heading containing "Tried and left out" is exempt: that is where the
// docs record what was deleted.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"unicode"

	"spidercache/internal/experiments"
)

var checkedDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}

// liveNames is what the docs may name outside a tried-and-left-out section.
type liveNames struct {
	flags       map[string]map[string]bool // command -> registered flag names
	anyFlag     map[string]bool            // every command's flags and goToolFlags
	experiments map[string]bool            // ids, aliases and "all"
	policies    map[string]bool
}

// goToolFlags are the go tool's flags the docs name in prose, away from a
// command of this repository.
var goToolFlags = []string{"race", "count", "run"}

func TestDocsNameLiveCode(t *testing.T) {
	live := loadLiveNames(t)
	for _, doc := range checkedDocs {
		body, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, problem := range staleNames(string(body), live) {
			t.Errorf("%s:%s", doc, problem)
		}
	}
}

// TestDocsCheckCatchesStaleNames plants one stale name of each kind in
// current-design text, where the check must report it, and under a
// tried-and-left-out heading, where it must not.
func TestDocsCheckCatchesStaleNames(t *testing.T) {
	live := loadLiveNames(t)
	plants := []string{
		"Freeze the split with `spidertrain -static-ratio`.",
		"Table 2 reads its code size from `internal/pq`.",
		"Regenerate it with `go run ./cmd/spiderbench -exp snapshot -scale 1`.",
		"Compare `spidertrain -policy graphaware` against the rest.",
		"```sh\ngo run ./cmd/spiderkv -listen 127.0.0.1:7461 \\\n    -shards 4\n```",
		"Tune expulsion with `-dead-after`.",
	}
	for _, plant := range plants {
		current := "# Design\n\n## Store\n\n" + plant + "\n"
		if got := staleNames(current, live); len(got) != 1 {
			t.Errorf("%q in current-design text: got %d problems %v, want 1", plant, len(got), got)
		}
		exempt := "# Design\n\n## Store\n\n### Tried and left out\n\n" + plant + "\n\n## Next\n\nText.\n"
		if got := staleNames(exempt, live); len(got) != 0 {
			t.Errorf("%q under a tried-and-left-out heading: got %v, want none", plant, got)
		}
		// The exemption ends at the next heading of the same or a higher level.
		after := "## Store\n\n### Tried and left out\n\nText.\n\n## Next\n\n" + plant + "\n"
		if got := staleNames(after, live); len(got) != 1 {
			t.Errorf("%q after the exempt section: got %v, want 1 problem", plant, got)
		}
	}
}

func loadLiveNames(t *testing.T) liveNames {
	t.Helper()
	live := liveNames{
		flags:       commandFlags(t),
		anyFlag:     map[string]bool{},
		experiments: map[string]bool{"all": true},
		policies:    map[string]bool{},
	}
	for _, set := range live.flags {
		for name := range set {
			live.anyFlag[name] = true
		}
	}
	for _, name := range goToolFlags {
		live.anyFlag[name] = true
	}
	for _, id := range experiments.List() {
		live.experiments[id] = true
	}
	for _, id := range experimentAliases(t) {
		live.experiments[id] = true
	}
	for _, p := range experiments.PolicyNames() {
		live.policies[p] = true
	}
	return live
}

var (
	headingRE = regexp.MustCompile(`^(#{1,6})\s+(.*)$`)
	// A path the docs name, bare, as ./path or as an import path.
	pathRE = regexp.MustCompile(`(?:^|[^\w/.-])(?:\./|spidercache/)?((?:cmd|internal|examples)(?:/[\w.-]+)+)`)
	cmdRE  = regexp.MustCompile(`\b(spidertrain|spiderbench|spiderkv|spiderlint)\b`)
	flagRE = regexp.MustCompile("(?:^|[\\s`])--?([A-Za-z][\\w-]*)")
	// An inline code span that starts with a flag.
	flagSpanRE = regexp.MustCompile("`--?([A-Za-z][\\w-]*)[^`]*`")
	expRE      = regexp.MustCompile(`(?:^|[\s` + "`" + `])-exp[ =]+([A-Za-z][\w-]*)`)
	polRE      = regexp.MustCompile(`(?:^|[\s` + "`" + `])-policy[ =]+([A-Za-z][\w-]*)`)
)

// staleNames returns one "line: message" per stale name in a markdown
// document, skipping sections under a "Tried and left out" heading.
func staleNames(doc string, live liveNames) []string {
	var problems []string
	report := func(line int, format string, args ...any) {
		problems = append(problems, strconv.Itoa(line)+": "+fmt.Sprintf(format, args...))
	}
	lines := strings.Split(doc, "\n")
	fenced := false
	exemptLevel := 0 // heading level of the exempt section, 0 when none
	for i := 0; i < len(lines); i++ {
		num, text := i+1, lines[i]
		if strings.HasPrefix(strings.TrimSpace(text), "```") {
			fenced = !fenced
			continue
		}
		if m := headingRE.FindStringSubmatch(text); m != nil && !fenced {
			level := len(m[1])
			if exemptLevel > 0 && level <= exemptLevel {
				exemptLevel = 0
			}
			if exemptLevel == 0 && strings.Contains(strings.ToLower(m[2]), "tried and left out") {
				exemptLevel = level
			}
			continue
		}
		// A shell line continued with a backslash is one command.
		for strings.HasSuffix(text, "\\") && i+1 < len(lines) {
			i++
			text = strings.TrimSuffix(text, "\\") + " " + strings.TrimSpace(lines[i])
		}
		if exemptLevel > 0 {
			continue
		}
		for _, m := range pathRE.FindAllStringSubmatch(text, -1) {
			if p := packagePath(m[1]); !exists(p) {
				report(num, "names %s, which does not exist", p)
			}
		}
		for _, use := range flagUses(text) {
			if !live.flags[use[0]][use[1]] {
				report(num, "passes %s -%s, which it does not register", use[0], use[1])
			}
		}
		for _, name := range proseFlags(text) {
			if !live.anyFlag[name] {
				report(num, "names -%s, which no command registers", name)
			}
		}
		for _, m := range expRE.FindAllStringSubmatch(text, -1) {
			if !live.experiments[m[1]] {
				report(num, "names experiment %q, which is not registered", m[1])
			}
		}
		for _, m := range polRE.FindAllStringSubmatch(text, -1) {
			if !live.policies[m[1]] {
				report(num, "names policy %q, which is not registered", m[1])
			}
		}
	}
	return problems
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// packagePath trims what can follow a path in prose: a sentence's full
// stop, the "/..." of a package pattern and a qualified identifier
// (internal/cluster.Node names internal/cluster).
func packagePath(p string) string {
	p = strings.TrimRight(p, "./")
	base := filepath.Base(p)
	if i := strings.LastIndexByte(base, '.'); i >= 0 && i+1 < len(base) && unicode.IsUpper(rune(base[i+1])) {
		p = strings.TrimSuffix(p, base[i:])
	}
	return p
}

// flagUses returns the {command, flag} pairs of a line: each flag that
// follows a command name, up to the end of the code span the name sits in,
// a shell separator or comment, the end of a sentence or the next command.
func flagUses(line string) [][2]string {
	var uses [][2]string
	matches := cmdRE.FindAllStringSubmatchIndex(line, -1)
	for k, m := range matches {
		end := m[1]
		if end < len(line) && line[end] != ' ' {
			continue // a path (cmd/spiderkv/main.go), a possessive, ...
		}
		seg := line[end:]
		if k+1 < len(matches) {
			seg = line[end:matches[k+1][0]]
		}
		if strings.Count(line[:m[0]], "`")%2 == 1 {
			if j := strings.Index(seg, "`"); j >= 0 {
				seg = seg[:j]
			}
		}
		for _, stop := range []string{";", "|", "&&", ">", "#", "(", ")", ". ", ", "} {
			if j := strings.Index(seg, stop); j >= 0 {
				seg = seg[:j]
			}
		}
		for _, f := range flagRE.FindAllStringSubmatch(seg, -1) {
			uses = append(uses, [2]string{line[m[2]:m[3]], f[1]})
		}
	}
	return uses
}

// proseFlags returns the flag each code span of a line starts with, for the
// spans no command name comes before on the line; flagUses checks those
// against their command.
func proseFlags(line string) []string {
	var names []string
	for _, m := range flagSpanRE.FindAllStringSubmatchIndex(line, -1) {
		if strings.Count(line[:m[0]], "`")%2 == 0 && !cmdRE.MatchString(line[:m[0]]) {
			names = append(names, line[m[2]:m[3]])
		}
	}
	return names
}

// commandFlags parses cmd/*/main.go and returns each command's registered
// flags: every flag-defining call with a literal name.
func commandFlags(t *testing.T) map[string]map[string]bool {
	t.Helper()
	mains, err := filepath.Glob(filepath.Join("cmd", "*", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	if len(mains) == 0 {
		t.Fatal("no cmd/*/main.go found")
	}
	out := map[string]map[string]bool{}
	for _, path := range mains {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		set := map[string]bool{"h": true, "help": true} // the flag package's own
		for _, name := range definedFlags(f) {
			set[name] = true
		}
		out[filepath.Base(filepath.Dir(path))] = set
	}
	return out
}

// definedFlags returns the flag names registered under node: the literal
// name argument of each flag.X / fs.X definition.
func definedFlags(node ast.Node) []string {
	var names []string
	ast.Inspect(node, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		arg := 0
		switch sel.Sel.Name {
		case "Bool", "Int", "Int64", "Uint", "Uint64", "Float64", "String", "Duration", "Func", "BoolFunc":
		case "BoolVar", "IntVar", "Int64Var", "UintVar", "Uint64Var", "Float64Var", "StringVar", "DurationVar", "Var", "TextVar":
			arg = 1
		default:
			return true
		}
		if len(call.Args) > arg {
			if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if name, err := strconv.Unquote(lit.Value); err == nil {
					names = append(names, name)
				}
			}
		}
		return true
	})
	return names
}

// experimentAliases reads the keys of the experiments package's alias
// table, which it does not export.
func experimentAliases(t *testing.T) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), filepath.Join("internal", "experiments", "experiments.go"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	ast.Inspect(f, func(n ast.Node) bool {
		spec, ok := n.(*ast.ValueSpec)
		if !ok || len(spec.Names) != 1 || spec.Names[0].Name != "aliases" || len(spec.Values) != 1 {
			return true
		}
		if lit, ok := spec.Values[0].(*ast.CompositeLit); ok {
			for _, elt := range lit.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if key, ok := kv.Key.(*ast.BasicLit); ok {
						if id, err := strconv.Unquote(key.Value); err == nil {
							ids = append(ids, id)
						}
					}
				}
			}
		}
		return false
	})
	if len(ids) == 0 {
		t.Fatal("no experiment aliases found in internal/experiments/experiments.go")
	}
	return ids
}
