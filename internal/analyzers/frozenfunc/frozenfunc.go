// Package frozenfunc enforces the rewrite-cache immutability contract:
// a rewritten body that may have come from a core.RewriteSource (the
// function cache's records) is shared by pointer across requests and engine threads, so mutating it
// in place corrupts every concurrent holder. The runtime side freezes
// cached bodies (ir.Func.Freeze makes Build error and RenumberRegs
// panic); this pass catches the same class of bug at build time, before
// it becomes a once-in-a-thousand-requests crash.
//
// Tracked cache-shared bodies are, conservatively, every *ir.Func
// reached through
//
//   - the F field of core.ThreadAlloc (an allocation's rewritten
//     thread body — frozen whenever a rewrite cache served the run, and
//     callers cannot tell), and
//   - the body returned by a RewriteSource's LookupRewrite or
//     StoreRewrite (always frozen before it becomes visible),
//
// plus locals that may be bound to either on some path (anz.AliasRule:
// a body cloned on one branch only may still be shared at the join).
// Within each function of a consumer package the pass flags, on
// tracked values:
//
//   - calls to the mutating methods Build and RenumberRegs, and
//   - writes through the body: assignments to its fields or to
//     elements reached from it (f.NumRegs = ..., th.F.Blocks[i] = ...).
//
// Replacing the pointer itself (th.F = g) is not a mutation of the
// shared body and is not flagged; neither is mutating a Clone — the
// clone is caller-owned. Justified exceptions carry a //lint:ignore
// frozenfunc directive.
package frozenfunc

import (
	"go/ast"
	"go/types"

	"npra/internal/analyzers/anz"
)

// Analyzer is the frozenfunc pass.
var Analyzer = &anz.Analyzer{
	Name: "frozenfunc",
	Doc: "flags in-place mutation of cache-shared rewritten bodies (ThreadAlloc.F, " +
		"RewriteSource results) — frozen funcs are shared by pointer across requests",
	Run: rule.Run,
}

// mutators are ir.Func's in-place mutating methods.
var mutators = map[string]bool{"Build": true, "RenumberRegs": true}

// rewriteSourceMethods name the RewriteSource entry points whose first
// result is a cache-shared body.
var rewriteSourceMethods = map[string]bool{"LookupRewrite": true, "StoreRewrite": true}

var rule = &anz.AliasRule{
	// A ThreadAlloc.F selection or a RewriteSource call result.
	Tracked: func(pass *anz.Pass, e ast.Expr, t types.Type) bool {
		if anz.NamedIn(t, "/ir", "Func") == "" {
			return false
		}
		switch e := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			return e.Sel.Name == "F" && anz.NamedIn(pass.Info.TypeOf(e.X), "/core", "ThreadAlloc") != ""
		case *ast.CallExpr:
			sel, ok := e.Fun.(*ast.SelectorExpr)
			return ok && rewriteSourceMethods[sel.Sel.Name]
		}
		return false
	},
	Check: func(pass *anz.Pass, n ast.Expr, held func(ast.Expr) bool) {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && mutators[sel.Sel.Name] && held(sel.X) {
				pass.Reportf(call.Pos(), "%s on a cache-shared rewritten body; frozen funcs are shared by pointer across requests — work on a Clone instead", sel.Sel.Name)
			}
			return
		}
		// An assignment target writes through a shared body when one of
		// its bases (not the target itself: th.F = g swaps a pointer) is
		// shared.
		for lhs := n; ; {
			switch l := ast.Unparen(lhs).(type) {
			case *ast.SelectorExpr:
				lhs = l.X
			case *ast.IndexExpr:
				lhs = l.X
			case *ast.StarExpr:
				lhs = l.X
			default:
				return
			}
			if held(lhs) {
				pass.Reportf(n.Pos(), "write through the cache-shared rewritten body %s; frozen funcs are shared by pointer across requests — mutate a Clone instead", anz.ExprPath(lhs))
				return
			}
		}
	},
}
