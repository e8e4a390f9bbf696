// Package poolalias mechanically catches the scratch-pool aliasing bug
// class fixed in PR 3: intra's bestStep reuses pooled *Context scratch
// buffers via copyFrom, which rewrites the pooled Piece backing array
// in place — so any *intra.Piece pointer obtained BEFORE a
// copyFrom/Reset call is a dangling alias AFTER it (the PR-3 incident:
// coalesce left stale *Piece values in the compacted tail of a reused
// slice).
//
// Within each function of the intra package the pass flags, along the
// control-flow graph (anz.AliasRule):
//
//   - a use of a *Piece-typed local that a copyFrom/Reset may have
//     reached since it was bound, and
//   - a *Piece value stored into a field, slice or map element (a
//     structure that survives the call) when a copyFrom/Reset is
//     reachable from the store.
//
// A rebinding after the reuse point is fine; false positives (e.g.
// pieces taken from a context that is provably not the one being
// reset) carry a //lint:ignore poolalias justification.
package poolalias

import (
	"go/ast"
	"go/types"
	"strings"

	"npra/internal/analyzers/anz"
)

// Analyzer is the poolalias pass.
var Analyzer = &anz.Analyzer{
	Name: "poolalias",
	Doc: "flags *intra.Piece pointers that survive a scratch-context copyFrom/Reset " +
		"— the PR-3 stale-alias bug class",
	Run: func(pass *anz.Pass) error {
		if !strings.HasSuffix(pass.Path, "/intra") {
			return nil
		}
		return rule.Run(pass)
	},
}

var rule = &anz.AliasRule{
	Tracked: func(_ *anz.Pass, _ ast.Expr, t types.Type) bool {
		return anz.NamedIn(t, "/intra", "Piece") != ""
	},
	Kill: func(_ *anz.Pass, call *ast.CallExpr) bool { return killName(call) != "" },
	Stale: func(pass *anz.Pass, fn *ast.FuncDecl, at ast.Expr, kill *ast.CallExpr) {
		if id, ok := at.(*ast.Ident); ok {
			pass.Reportf(id.Pos(), "use of *Piece %s bound before the %s at line %d; the scratch-context reuse invalidates pooled piece pointers (PR-3 aliasing bug class) — rebind after the reuse or copy the data", id.Name, killName(kill), pass.Fset.Position(kill.Pos()).Line)
			return
		}
		pass.Reportf(at.Pos(), "*Piece stored into a structure that survives a later %s in %s; the pointer dangles once the pooled backing is reused — copy the piece data instead of aliasing it", killName(kill), fn.Name.Name)
	},
}

// killName names the method when call recycles a context's piece
// storage (copyFrom or Reset), and is "" otherwise.
func killName(call *ast.CallExpr) string {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && (sel.Sel.Name == "copyFrom" || sel.Sel.Name == "Reset") {
		return sel.Sel.Name
	}
	return ""
}
