package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"regexp"
	"strings"
)

// metricNameRE is the repository's metric naming convention: snake_case,
// starting with a letter (a strict subset of what Prometheus accepts — no
// capitals, no colons, so the exposition stays uniform).
var metricNameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// registryMethods maps telemetry.Registry methods to the instrument kind
// they register ("" for Describe, which registers nothing).
var registryMethods = map[string]string{
	"Counter":         "counter",
	"Gauge":           "gauge",
	"Histogram":       "histogram",
	"HistogramWindow": "histogram",
	"Describe":        "",
}

// metricNamesCheck enforces the telemetry naming invariants the Prometheus
// exposition (and every dashboard built on it) depends on:
//
//   - instrument names are compile-time constants — a computed name cannot
//     be audited and drifts silently;
//   - names are snake_case (metricNameRE); counters end in _total and
//     nothing else does (the Prometheus counter convention);
//   - one family, one kind, one owner: a family name must be registered
//     from exactly one function, and always with the same instrument kind —
//     scattered registration is how label sets and help strings drift;
//   - Describe must describe a family that is actually registered.
//
// The check keys on method calls whose receiver is a Registry type in a
// package named "telemetry", so it follows the registry wherever it is
// threaded.
func metricNamesCheck() *Check {
	c := &Check{
		Name: "metricnames",
		Doc:  "telemetry names snake_case, counters _total, one registration site per family",
	}
	c.Run = func(p *Pass) {
		registrations, describes := collectMetricSites(p)
		for name, sites := range registrations {
			kinds := map[string]bool{}
			fns := map[string]bool{}
			for _, s := range sites {
				kinds[s.kind] = true
				fns[s.fn] = true
			}
			if len(kinds) > 1 {
				for _, s := range sites {
					p.Reportf(s.pos.Pos(), "metric %q registered with conflicting kinds (%s)", name, joinSorted(kinds))
				}
			}
			if len(fns) > 1 {
				for _, s := range sites {
					p.Reportf(s.pos.Pos(), "metric %q registered from multiple functions (%s); keep one registration site per family", name, joinSorted(fns))
				}
			}
		}
		for name, sites := range describes {
			if _, ok := registrations[name]; !ok {
				for _, s := range sites {
					p.Reportf(s.pos.Pos(), "Describe(%q) has no matching registration; the help text would never be emitted", name)
				}
			}
		}
	}
	return c
}

// metricSite is one registry call naming a metric family.
type metricSite struct {
	pos  ast.Node
	fn   string // "pkgpath.FuncName"
	kind string
}

// collectMetricSites finds every registry call in the module, keyed by
// family name (registrations and Describe calls apart), and reports the
// per-site naming findings on the way.
func collectMetricSites(p *Pass) (registrations, describes map[string][]metricSite) {
	registrations, describes = map[string][]metricSite{}, map[string][]metricSite{}
	for _, pkg := range p.Module.Packages {
		// The telemetry package itself passes names through variables
		// (Histogram forwarding to HistogramWindow); the convention
		// binds call sites, not the registry internals.
		if pkg.Name == "telemetry" {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) < 1 {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				kind, isReg := registryMethods[sel.Sel.Name]
				if !isReg || !isTelemetryRegistry(pkg, sel) {
					return true
				}
				nameArg := call.Args[0]
				tv, hasTV := pkg.Info.Types[nameArg]
				if !hasTV || tv.Value == nil || tv.Value.Kind() != constant.String {
					p.Reportf(nameArg.Pos(), "metric name must be a compile-time string constant")
					return true
				}
				name := constant.StringVal(tv.Value)
				site := metricSite{pos: nameArg, fn: pkg.Path + "." + enclosingFunc(f, call.Pos()), kind: kind}
				if !metricNameRE.MatchString(name) {
					p.Reportf(nameArg.Pos(), "metric name %q is not snake_case (want %s)", name, metricNameRE)
				}
				switch {
				case kind == "counter" && !strings.HasSuffix(name, "_total"):
					p.Reportf(nameArg.Pos(), "counter %q must end in _total", name)
				case kind != "counter" && kind != "" && strings.HasSuffix(name, "_total"):
					p.Reportf(nameArg.Pos(), "%s %q must not end in _total (reserved for counters)", kind, name)
				}
				if kind == "" {
					describes[name] = append(describes[name], site)
				} else {
					registrations[name] = append(registrations[name], site)
				}
				return true
			})
		}
	}
	return registrations, describes
}

// isTelemetryRegistry reports whether sel's receiver is a Registry declared
// in a package named "telemetry".
func isTelemetryRegistry(pkg *Package, sel *ast.SelectorExpr) bool {
	s, ok := pkg.Info.Selections[sel]
	if !ok {
		return false
	}
	t := s.Recv()
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Registry" && obj.Pkg() != nil && obj.Pkg().Name() == "telemetry"
}

func joinSorted(set map[string]bool) string {
	var out []string
	for k := range set {
		out = append(out, k)
	}
	// Deterministic output for tests and stable CLI runs.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return strings.Join(out, ", ")
}
