package lint

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"sort"
	"strings"
	"testing"
)

// buildFixtureCFG parses src (one file with one function named fn) and
// returns the function's CFG plus the fileset for rendering.
func buildFixtureCFG(t *testing.T, src, fn string) (*token.FileSet, *funcCFG) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "cfgfix.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == fn {
			return fset, buildCFG(fd.Body)
		}
	}
	t.Fatalf("function %q not found", fn)
	return nil, nil
}

// wantCFG asserts the rendered graph matches golden exactly (both sides
// whitespace-trimmed per line).
func wantCFG(t *testing.T, fset *token.FileSet, g *funcCFG, golden string) {
	t.Helper()
	trim := func(s string) string {
		var out []string
		for _, l := range strings.Split(strings.TrimSpace(s), "\n") {
			out = append(out, strings.TrimSpace(l))
		}
		return strings.Join(out, "\n")
	}
	got := trim(cfgString(fset, g))
	want := trim(golden)
	if got != want {
		t.Errorf("CFG mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestCFGStraightLineAndIf(t *testing.T) {
	fset, g := buildFixtureCFG(t, `package p
func f(a int) int {
	a++
	if a > 0 {
		a = 1
	} else {
		a = 2
	}
	return a
}`, "f")
	wantCFG(t, fset, g, `
b0 (entry): {a++} {a > 0} -> b4 b5
b1 (exit):
b2 (panic):
b3: {return a} -> b1
b4: {a = 1} -> b3
b5: {a = 2} -> b3
`)
}

func TestCFGNestedLoops(t *testing.T) {
	fset, g := buildFixtureCFG(t, `package p
func f(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s += j
		}
	}
	return s
}`, "f")
	// Outer: head=b3 body=b6 post=b5 follow=b4; inner inside b6:
	// head=b7 body=b10 post=b9 follow=b8.
	wantCFG(t, fset, g, `
b0 (entry): {s := 0} {i := 0} -> b3
b1 (exit):
b2 (panic):
b3: {i < n} -> b4 b6
b4: {return s} -> b1
b5: {i++} -> b3
b6: {j := 0} -> b7
b7: {j < n} -> b8 b10
b8: -> b5
b9: {j++} -> b7
b10: {s += j} -> b9
`)
}

func TestCFGLabeledBreakContinue(t *testing.T) {
	fset, g := buildFixtureCFG(t, `package p
func f(m [][]int) int {
	s := 0
outer:
	for _, row := range m {
		for _, v := range row {
			if v < 0 {
				continue outer
			}
			if v == 0 {
				break outer
			}
			s += v
		}
	}
	return s
}`, "f")
	// b3 is the labeled statement's target block holding the ranged expr;
	// outer range head=b4 follow=b5 body=b6; inner head=b7 follow=b8
	// body=b9. continue outer -> b4 (outer head); break outer -> b5.
	wantCFG(t, fset, g, `
b0 (entry): {s := 0} -> b3
b1 (exit):
b2 (panic):
b3: {m} -> b4
b4: -> b5 b6
b5: {return s} -> b1
b6: {row} -> b7
b7: -> b8 b9
b8: -> b4
b9: {v < 0} -> b10 b11
b10: {v == 0} -> b12 b13
b11: -> b4
b12: {s += v} -> b7
b13: -> b5
`)
}

func TestCFGDeferInLoopAndPanic(t *testing.T) {
	fset, g := buildFixtureCFG(t, `package p
func f(files []string) {
	for _, name := range files {
		h := open(name)
		defer h.close()
		if h == nil {
			panic("open")
		}
	}
}
func open(string) *T { return nil }
type T struct{}
func (*T) close() {}`, "f")
	// The defer is an ordinary node inside the loop body (b5); panic exits
	// to the panic sink b2, not the function exit b1.
	wantCFG(t, fset, g, `
b0 (entry): {files} -> b3
b1 (exit):
b2 (panic):
b3: -> b4 b5
b4: -> b1
b5: {h := open(name)} {defer h.close()} {h == nil} -> b6 b7
b6: -> b3
b7: {panic("open")} -> b2
`)
}

func TestCFGSelect(t *testing.T) {
	fset, g := buildFixtureCFG(t, `package p
func f(a, b chan int) int {
	select {
	case v := <-a:
		return v
	case b <- 1:
	}
	return 0
}`, "f")
	// The select head (b0) holds the shallow marker; each clause block
	// starts with its comm statement; case 1 returns, case 2 falls to the
	// follow block b3.
	wantCFG(t, fset, g, `
b0 (entry): {select} -> b4 b5
b1 (exit):
b2 (panic):
b3: {return 0} -> b1
b4: {v := <-a} {return v} -> b1
b5: {b <- 1} -> b3
`)
}

func TestCFGGoto(t *testing.T) {
	fset, g := buildFixtureCFG(t, `package p
func f(cond bool) int {
	x := 1
	if cond {
		goto out
	}
	x = 2
out:
	return x
}`, "f")
	// The forward goto resolves to the labeled block b5 once the label is
	// reached; both the branch and the fallthrough path converge there.
	wantCFG(t, fset, g, `
b0 (entry): {x := 1} {cond} -> b3 b4
b1 (exit):
b2 (panic):
b3: {x = 2} -> b5
b4: -> b5
b5: {return x} -> b1
`)
}

func TestCFGSwitchFallthrough(t *testing.T) {
	fset, g := buildFixtureCFG(t, `package p
func f(x int) int {
	switch x {
	case 1:
		x = 10
		fallthrough
	case 2:
		x = 20
	default:
		x = 30
	}
	return x
}`, "f")
	// Fallthrough chains case 1's block into case 2's; the default case
	// means no direct head->follow edge.
	wantCFG(t, fset, g, `
b0 (entry): {x} -> b4 b5 b6
b1 (exit):
b2 (panic):
b3: {return x} -> b1
b4: {1} {x = 10} -> b5
b5: {2} {x = 20} -> b3
b6: {x = 30} -> b3
`)
}

// TestCFGSolverReachesFixpointOnLoops drives the generic solver with a
// reaching-state fact over a looping graph and checks it terminates with
// the merged fact, exercising the worklist's convergence rather than any
// particular analyzer.
func TestCFGSolverReachesFixpoint(t *testing.T) {
	_, g := buildFixtureCFG(t, `package p
func f(n int) int {
	x := 0
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			x = 1
		}
	}
	return x
}`, "f")
	// Fact: set of possible "x" values, as a bitmask. 1<<0 = x==0, 1<<1 = x==1.
	transfer := func(b *cfgBlock, in uint) uint {
		out := in
		for _, n := range b.nodes {
			if as, ok := n.(*ast.AssignStmt); ok {
				src := nodeSrcForTest(as)
				if src == "x:=0" {
					out = 1 << 0
				}
				if src == "x=1" {
					out |= 1 << 1
				}
			}
		}
		return out
	}
	in := solveForward(g, uint(0), transfer,
		func(a, b uint) uint { return a | b },
		func(a, b uint) bool { return a == b })
	got, ok := in[g.exit]
	if !ok {
		t.Fatalf("exit unreachable")
	}
	if got != (1<<0 | 1<<1) {
		t.Errorf("exit fact = %b, want both states merged (11)", got)
	}
}

func nodeSrcForTest(n ast.Node) string {
	fset := token.NewFileSet()
	s := nodeSrc(fset, n)
	return strings.ReplaceAll(s, " ", "")
}

// cfgString renders g for golden tests: one line per non-empty block with
// its node sources and successor indices, in block-index order.
func cfgString(fset *token.FileSet, g *funcCFG) string {
	var sb strings.Builder
	special := func(b *cfgBlock) string {
		switch b {
		case g.entry:
			return " (entry)"
		case g.exit:
			return " (exit)"
		case g.panicExit:
			return " (panic)"
		}
		return ""
	}
	index := make(map[*cfgBlock]int, len(g.blocks))
	for i, b := range g.blocks {
		index[b] = i
	}
	for _, b := range g.blocks {
		if len(b.nodes) == 0 && len(b.succs) == 0 && len(b.preds) == 0 &&
			b != g.entry && b != g.exit && b != g.panicExit {
			continue // never wired (e.g. builder scratch): not part of the graph
		}
		fmt.Fprintf(&sb, "b%d%s:", index[b], special(b))
		for _, n := range b.nodes {
			fmt.Fprintf(&sb, " {%s}", nodeSrc(fset, n))
		}
		if len(b.succs) > 0 {
			idx := make([]int, len(b.succs))
			for i, s := range b.succs {
				idx[i] = index[s]
			}
			sort.Ints(idx)
			parts := make([]string, len(idx))
			for i, x := range idx {
				parts[i] = fmt.Sprintf("b%d", x)
			}
			fmt.Fprintf(&sb, " -> %s", strings.Join(parts, " "))
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// nodeSrc prints one node's source, squashed onto a single line. Select
// statements print as a marker (their bodies live in other blocks).
func nodeSrc(fset *token.FileSet, n ast.Node) string {
	if _, ok := n.(*ast.SelectStmt); ok {
		return "select"
	}
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, n); err != nil {
		return fmt.Sprintf("<%T>", n)
	}
	s := buf.String()
	s = strings.ReplaceAll(s, "\n", " ")
	s = strings.ReplaceAll(s, "\t", "")
	for strings.Contains(s, "  ") {
		s = strings.ReplaceAll(s, "  ", " ")
	}
	return s
}
