// Package cachealias is poolalias's cross-package sibling, grown out of
// the PR-6 function cache: a checked-out intra.Allocator is exclusively
// the caller's only until its checkin runs. checkin(true) hands the
// allocator (and every *Piece/*Context its memo owns) to the cache,
// where another request may check it out concurrently; checkin(false)
// discards it. Either way, pointers into the allocator that outlive the
// checkin are aliases into memory the caller no longer owns.
//
// Within each function of a consumer package (anything importing
// intra), the pass flags, along the control-flow graph
// (anz.AliasRule):
//
//   - a use of a local typed *intra.Piece, *intra.Context or
//     *intra.Allocator that a checkin may have reached since it was
//     bound, and
//   - such a pointer stored into a field, slice or map element (a
//     structure that survives the call) when a checkin is reachable
//     from the store.
//
// A checkin is a call through a function value — a local, parameter or
// element, such as the checkin func core.AllocatorSource.Checkout
// returns — whose name contains "checkin" (case-insensitive). A call
// to a declared function or method is never one, so funccache's
// checkinFunc constructor is not. A deferred checkin acts only at exit,
// after every use in the body — the idiomatic `defer func() {
// checkin(ok) }()` is exactly the discipline this pass enforces.
// Justified exceptions carry a //lint:ignore cachealias directive.
package cachealias

import (
	"go/ast"
	"go/types"
	"strings"

	"npra/internal/analyzers/anz"
)

// Analyzer is the cachealias pass.
var Analyzer = &anz.Analyzer{
	Name: "cachealias",
	Doc: "flags *intra.Piece/Context/Allocator pointers that survive a function-cache " +
		"checkin — after checkin the cache owns the allocator and may hand it to " +
		"another request",
	Run: rule.Run,
}

// tracked are the intra types whose pointers the cache owns after a
// checkin.
var tracked = []string{"Piece", "Context", "Allocator"}

var rule = &anz.AliasRule{
	Tracked: func(_ *anz.Pass, _ ast.Expr, t types.Type) bool {
		return anz.NamedIn(t, "/intra", tracked...) != ""
	},
	Kill: func(pass *anz.Pass, call *ast.CallExpr) bool {
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			if _, isVar := pass.Info.Uses[fun].(*types.Var); !isVar {
				return false
			}
		case *ast.IndexExpr:
		default:
			return false
		}
		return strings.Contains(strings.ToLower(anz.ExprPath(call.Fun)), "checkin")
	},
	Stale: func(pass *anz.Pass, _ *ast.FuncDecl, at ast.Expr, kill *ast.CallExpr) {
		line := pass.Fset.Position(kill.Pos()).Line
		if id, ok := at.(*ast.Ident); ok {
			pass.Reportf(id.Pos(), "use of %s bound before the checkin at line %d; a checked-in allocator may be reused concurrently or discarded by the function cache — finish with it before checkin, or rebind after", id.Name, line)
			return
		}
		pass.Reportf(at.Pos(), "*intra.%s stored into a structure that survives the later checkin at line %d; after checkin the cache owns the allocator and may hand it to another request — copy the data instead of aliasing it", anz.NamedIn(pass.Info.TypeOf(at), "/intra", tracked...), line)
	},
}
