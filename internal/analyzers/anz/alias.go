package anz

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"
)

// The shared core of the pointer-discipline passes (poolalias,
// cachealias, frozenfunc). Each asks one flow question of a function
// body: which locals may hold a tracked pointer here, and which of those
// may a kill — a call that recycles or gives away the memory they point
// into — have made stale? A pass supplies an AliasRule: what a tracked
// value is, what a kill is, and which use is forbidden. The core answers
// with one forward may-analysis on Solve, then replays every block from
// its In fact to report. The rules are flow-ordered:
//
//   - A binding gives a local a fresh fact; a kill makes every tracked
//     binding stale. Facts join by union, so a kill on any path to a use
//     reaches it — across a loop back-edge too — and a kill on a branch
//     that returns does not.
//   - Deferred calls act only at Exit, through CFG.Defers.
//   - A function literal's body is analyzed on its own, entered with the
//     fact that holds where the literal is defined. A kill inside it does
//     not act at the definition.
//   - A tracked value stored into a field or element is stale when a kill
//     is reachable from the store on a path to the function's exit.

// An AliasRule is one pointer-discipline pass over the shared core.
type AliasRule struct {
	// Tracked reports whether e, whose pointer type is t (e's own type,
	// or one element of its tuple), is a tracked value.
	Tracked func(pass *Pass, e ast.Expr, t types.Type) bool

	// Kill reports whether call makes every tracked binding stale. Nil
	// means the pass has no kill.
	Kill func(pass *Pass, call *ast.CallExpr) bool

	// Stale reports at — a use of a stale local (an *ast.Ident), or the
	// target of a store a later kill invalidates — with that kill and
	// the enclosing declaration.
	Stale func(pass *Pass, fn *ast.FuncDecl, at ast.Expr, kill *ast.CallExpr)

	// Check, when set, sees every call and every assignment target with
	// held, which reports whether an expression holds a tracked value at
	// that point.
	Check func(pass *Pass, n ast.Expr, held func(ast.Expr) bool)
}

// Run checks every function declaration of the package.
func (r *AliasRule) Run(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				r.body(pass, fd, fd.Body, aliasFact{})
			}
		}
	}
	return nil
}

// body solves one function body (a declaration's or a literal's) from
// entry and reports what it finds.
func (r *AliasRule) body(pass *Pass, fn *ast.FuncDecl, body *ast.BlockStmt, entry aliasFact) {
	l := &aliasLattice{rule: r, pass: pass, fn: fn, g: BuildCFG(body), entry: entry}
	facts := Solve[aliasFact](l.g, l)
	var exit aliasFact
	for _, b := range l.g.Blocks {
		w := &aliasWalk{aliasLattice: l, fact: facts.In[b.Index].clone(), report: true}
		w.visit(l.nodes(b)...)
		if b == l.g.Exit {
			exit = w.fact
		}
	}
	for _, lhs := range l.stores {
		if kill := exit[lhs]; kill != nil && kill != fresh {
			r.Stale(pass, fn, lhs, kill)
		}
	}
}

// aliasFact maps each tracked binding — a local's types.Object, or a
// store target's ast.Expr — to fresh, or to the kill that may have made
// it stale. Where paths disagree the later kill is kept.
type aliasFact map[any]*ast.CallExpr

// fresh marks a binding no kill has reached. Its position sorts before
// every real kill's.
var fresh = &ast.CallExpr{Fun: &ast.Ident{}}

func (f aliasFact) clone() aliasFact {
	out := make(aliasFact, len(f))
	for k, v := range f {
		out[k] = v
	}
	return out
}

type aliasLattice struct {
	rule   *AliasRule
	pass   *Pass
	fn     *ast.FuncDecl
	g      *CFG
	entry  aliasFact
	stores []ast.Expr // tracked store targets, in replay order
}

func (l *aliasLattice) Bottom() aliasFact { return nil }
func (l *aliasLattice) Entry() aliasFact  { return l.entry }

func (l *aliasLattice) Join(a, b aliasFact) aliasFact {
	out := a.clone()
	for k, v := range b {
		out[k] = later(out[k], v)
	}
	return out
}

func later(a, b *ast.CallExpr) *ast.CallExpr {
	if a == nil || b.Pos() > a.Pos() {
		return b
	}
	return a
}

func (l *aliasLattice) Equal(a, b aliasFact) bool {
	same := 0
	for k, v := range a {
		if b[k] == v {
			same++
		}
	}
	return same == len(a) && len(a) == len(b)
}

func (l *aliasLattice) Transfer(b *Block, in aliasFact) aliasFact {
	w := &aliasWalk{aliasLattice: l, fact: in.clone()}
	w.visit(l.nodes(b)...)
	return w.fact
}

// nodes is b's nodes in evaluation order; the exit block runs the
// deferred calls, last-in first-out.
func (l *aliasLattice) nodes(b *Block) []ast.Node {
	if b != l.g.Exit {
		return b.Nodes
	}
	var out []ast.Node
	for i := len(l.g.Defers) - 1; i >= 0; i-- {
		out = append(out, l.g.Defers[i])
	}
	return out
}

// aliasWalk applies nodes to a fact in evaluation order. With report set
// it is the replay: it reports and descends into function literals.
type aliasWalk struct {
	*aliasLattice
	fact   aliasFact
	report bool
}

func (w *aliasWalk) visit(nodes ...ast.Node) {
	for _, n := range nodes {
		ast.Inspect(n, w.step)
	}
}

func (w *aliasWalk) step(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.DeferStmt, *ast.RangeStmt:
		return false // deferred calls run at Exit; a range body is its own block
	case *ast.FuncLit:
		if w.report {
			w.rule.body(w.pass, w.fn, n.Body, w.fact.clone())
		}
		return false
	case *ast.AssignStmt:
		for _, rhs := range n.Rhs {
			w.visit(rhs)
		}
		for i := range n.Lhs {
			w.assign(n, i)
		}
		return false
	case *ast.CallExpr:
		w.visit(n.Fun)
		for _, arg := range n.Args {
			w.visit(arg)
		}
		w.check(n)
		if w.rule.Kill != nil && w.rule.Kill(w.pass, n) {
			for k := range w.fact {
				w.fact[k] = n
			}
		}
		return false
	case *ast.Ident:
		if kill := w.fact[w.pass.Info.Uses[n]]; w.report && kill != nil && kill != fresh {
			w.rule.Stale(w.pass, w.fn, n, kill)
		}
	}
	return true
}

// assign binds or stores the i-th target of as; its right-hand side has
// already been visited.
func (w *aliasWalk) assign(as *ast.AssignStmt, i int) {
	tracked := false
	if len(as.Lhs) == len(as.Rhs) {
		tracked = w.held(as.Rhs[i])
	} else if tup, ok := w.pass.Info.TypeOf(as.Rhs[0]).(*types.Tuple); ok && i < tup.Len() {
		tracked = w.tracked(as.Rhs[0], tup.At(i).Type())
	}
	if id, ok := as.Lhs[i].(*ast.Ident); ok {
		if obj := w.pass.Info.ObjectOf(id); obj != nil {
			delete(w.fact, obj)
			if tracked {
				w.fact[obj] = fresh
			}
		}
		return
	}
	w.visit(as.Lhs[i])
	w.check(as.Lhs[i])
	if tracked {
		w.fact[as.Lhs[i]] = fresh
		if w.report {
			w.stores = append(w.stores, as.Lhs[i])
		}
	}
}

func (w *aliasWalk) check(n ast.Expr) {
	if w.report && w.rule.Check != nil {
		w.rule.Check(w.pass, n, w.held)
	}
}

// held reports whether e holds a tracked value here: a local bound to
// one, or an expression the rule tracks.
func (w *aliasWalk) held(e ast.Expr) bool {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok && w.fact[w.pass.Info.Uses[id]] != nil {
		return true
	}
	return w.tracked(e, w.pass.Info.TypeOf(e))
}

func (w *aliasWalk) tracked(e ast.Expr, t types.Type) bool {
	_, ptr := t.(*types.Pointer)
	return ptr && w.rule.Tracked(w.pass, e, t)
}

// NamedIn returns the name of t's named type, looking through one
// pointer, when it is one of names declared in a package whose import
// path ends in pkgSuffix, and "" otherwise. Matching by suffix lets
// fixtures stub the real package.
func NamedIn(t types.Type, pkgSuffix string, names ...string) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil || !strings.HasSuffix(obj.Pkg().Path(), pkgSuffix) || !slices.Contains(names, obj.Name()) {
		return ""
	}
	return obj.Name()
}
