// Package analyzers assembles the npravet suite: the eleven invariant
// analyzers grown out of PRs 1–9, ready for the cmd/npravet
// multichecker, make lint, CI and the in-repo selfcheck test.
//
// The suite is intentionally closed over this repository's invariants —
// it is not a general-purpose linter. Each pass documents the PR that
// established the invariant it enforces; docs/INTERNALS.md "Static
// invariants & linting" is the user-facing index. The PR-9 trio
// (lockorder, goleak, atomicmix) and the aliasing passes (poolalias,
// cachealias, frozenfunc, through the shared anz.AliasRule core) run on
// the anz CFG/dataflow layer rather than plain AST walks — see the
// "Dataflow framework" subsection there before writing a new analyzer.
package analyzers

import (
	"npra/internal/analyzers/anz"
	"npra/internal/analyzers/atomicmix"
	"npra/internal/analyzers/cachealias"
	"npra/internal/analyzers/ctxplumb"
	"npra/internal/analyzers/detlint"
	"npra/internal/analyzers/errtaxonomy"
	"npra/internal/analyzers/frozenfunc"
	"npra/internal/analyzers/goleak"
	"npra/internal/analyzers/lockorder"
	"npra/internal/analyzers/panicfree"
	"npra/internal/analyzers/poolalias"
	"npra/internal/analyzers/sleeplint"
)

// Suite returns the full analyzer suite in stable (alphabetical) order.
func Suite() []*anz.Analyzer {
	return []*anz.Analyzer{
		atomicmix.Analyzer,
		cachealias.Analyzer,
		ctxplumb.Analyzer,
		detlint.Analyzer,
		errtaxonomy.Analyzer,
		frozenfunc.Analyzer,
		goleak.Analyzer,
		lockorder.Analyzer,
		panicfree.Analyzer,
		poolalias.Analyzer,
		sleeplint.Analyzer,
	}
}
