package lint

import (
	"go/ast"
	"go/types"
)

// errcheckCheck is the "lite" unchecked-error analyzer for the serving hot
// path (Config.ErrcheckPkgs): an expression statement that discards the
// error from an io/net write is a finding. The closed callee set keeps it
// focused on calls whose errors actually signal a broken connection:
//
//   - any error-returning method on a type declared in package net
//     (Conn writes, deadline arms, Close);
//   - Flush/flush methods (bufio.Writer and the repo's own buffered
//     writers) — the flush is where sticky write errors surface, so it is
//     the one call that must never be dropped;
//   - fmt.Fprint/Fprintf/Fprintln and io.WriteString/io.Copy, the indirect
//     write paths.
//
// Intermediate bufio WriteString/WriteByte calls are deliberately exempt:
// bufio errors are sticky and the protocol code checks the final write or
// flush of each frame. An intentional discard is written `_ = c.flush()`
// (visible intent) or annotated //lint:ignore errcheck <reason>.
func errcheckCheck() *Check {
	c := &Check{Name: "errcheck"}
	c.Run = func(p *Pass) {
		for _, pkg := range p.PackagesMatching(p.Cfg.ErrcheckPkgs) {
			for _, f := range pkg.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					stmt, ok := n.(*ast.ExprStmt)
					if !ok {
						return true
					}
					call, ok := stmt.X.(*ast.CallExpr)
					if !ok {
						return true
					}
					if why := droppedWriteError(pkg, call); why != "" {
						p.Reportf(call.Pos(), "%s error is dropped; handle it, assign to _ for visible intent, or annotate", why)
					}
					return true
				})
			}
		}
	}
	return c
}

// droppedWriteError reports a non-empty description when call is in the
// checked callee set and returns an error that the caller is discarding.
func droppedWriteError(pkg *Package, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	obj, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || !returnsError(obj) {
		return ""
	}
	name := obj.Name()
	qual := types.ExprString(call.Fun)

	// Package functions: fmt.Fprint*, io.WriteString/Copy.
	if obj.Pkg() != nil && isPackageSelector(pkg, sel.X) {
		switch obj.Pkg().Path() {
		case "fmt":
			if name == "Fprint" || name == "Fprintf" || name == "Fprintln" {
				return qual
			}
		case "io":
			if name == "WriteString" || name == "Copy" || name == "CopyN" {
				return qual
			}
		}
		return ""
	}

	// Methods: net-declared receivers, and Flush on anything.
	if name == "Flush" || name == "flush" {
		return qual
	}
	if s, hasSel := pkg.Info.Selections[sel]; hasSel {
		t := s.Recv()
		if ptr, isPtr := t.(*types.Pointer); isPtr {
			t = ptr.Elem()
		}
		if named, isNamed := t.(*types.Named); isNamed {
			if o := named.Obj(); o.Pkg() != nil && o.Pkg().Path() == "net" {
				return qual
			}
		}
	}
	// Interface methods declared in net (net.Conn et al) resolve with the
	// method object's package.
	if obj.Pkg() != nil && obj.Pkg().Path() == "net" {
		return qual
	}
	return ""
}

// returnsError reports whether fn's last result is the builtin error type.
func returnsError(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	res := sig.Results()
	if res.Len() == 0 {
		return false
	}
	last := res.At(res.Len() - 1).Type()
	named, ok := last.(*types.Named)
	return ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil
}
