package anz

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// This file is the first layer of the anz flow framework: a
// per-function control-flow graph over go/ast. The paper's method is
// static reasoning about shared resources across *all* interleavings,
// not observed ones; a syntactic walk cannot see "lock held on this
// path but not that one", so the concurrency-safety passes (lockorder,
// goleak, atomicmix) and the aliasing passes (through alias.go) run on
// this CFG plus the worklist solver in dataflow.go instead.
//
// Shape: blocks hold statements and condition expressions in evaluation
// order; edges carry control. The builder understands if/else with
// short-circuit && and || decomposed into branch edges, for/range loops
// (including labeled break/continue), switch/type-switch with and
// without default, select (a case per communication, plus default),
// goto, and return/panic exits. defer is NOT an edge: deferred calls
// are collected per function in CFG.Defers, because they run at every
// exit in LIFO order — flow analyses apply them when a path reaches
// Exit, not at the defer statement.

// A CFG is the control-flow graph of one function body. Entry is the
// first executable block; Exit is the single synthetic exit every
// return and fall-off-the-end edge targets. Blocks is in construction
// order, which is stable for a given source text.
type CFG struct {
	Entry  *Block
	Exit   *Block
	Blocks []*Block

	// Defers lists the deferred call expressions of the function in
	// source order. They execute at every exit, last-in first-out.
	Defers []*ast.CallExpr
}

// A Block is a straight-line run of AST nodes with no internal control
// transfer. Nodes holds statements and — for decomposed conditions —
// bare expressions, in evaluation order. Succs are the possible
// continuations; a block ending the function has Exit as its only
// successor. Kind is a human-readable tag used by the golden
// successor-set tests and in debug dumps.
type Block struct {
	Index int
	Kind  string
	Nodes []ast.Node
	Succs []*Block

	// unreachable marks blocks created after a terminating statement
	// (return, panic, break) that no edge ever targeted.
	unreachable bool
}

// Reachable reports whether any path from Entry reaches b.
func (g *CFG) Reachable(b *Block) bool {
	seen := make([]bool, len(g.Blocks))
	var walk func(x *Block)
	walk = func(x *Block) {
		if seen[x.Index] {
			return
		}
		seen[x.Index] = true
		for _, s := range x.Succs {
			walk(s)
		}
	}
	walk(g.Entry)
	return seen[b.Index]
}

// ExitReachable reports whether the synthetic exit is reachable from
// Entry — i.e. whether the function can terminate at all. A goroutine
// body for which this is false spins or blocks forever (the goleak bug
// class), absent panics.
func (g *CFG) ExitReachable() bool { return g.Reachable(g.Exit) }

// Dump renders the graph as one line per reachable block:
//
//	b0 entry [stmts...] -> b1 b2
//
// It is the golden format of the CFG corner tests. Node text is
// abbreviated to the first lexical token-ish fragment so goldens stay
// readable.
func (g *CFG) Dump(fset *token.FileSet) string {
	var sb strings.Builder
	for _, b := range g.Blocks {
		if b.unreachable && !g.Reachable(b) {
			continue
		}
		fmt.Fprintf(&sb, "b%d %s", b.Index, b.Kind)
		for _, n := range b.Nodes {
			fmt.Fprintf(&sb, " {%s}", nodeLabel(n))
		}
		succs := make([]int, 0, len(b.Succs))
		for _, s := range b.Succs {
			succs = append(succs, s.Index)
		}
		sort.Ints(succs)
		sb.WriteString(" ->")
		if len(succs) == 0 {
			sb.WriteString(" .")
		}
		for _, s := range succs {
			fmt.Fprintf(&sb, " b%d", s)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// nodeLabel abbreviates an AST node for Dump.
func nodeLabel(n ast.Node) string {
	switch n := n.(type) {
	case *ast.AssignStmt:
		return exprText(n.Lhs[0]) + " " + n.Tok.String()
	case *ast.ExprStmt:
		return exprText(n.X)
	case *ast.ReturnStmt:
		return "return"
	case *ast.IncDecStmt:
		return exprText(n.X) + n.Tok.String()
	case *ast.SendStmt:
		return exprText(n.Chan) + "<-"
	case *ast.DeferStmt:
		return "defer " + exprText(n.Call.Fun)
	case *ast.GoStmt:
		return "go " + exprText(n.Call.Fun)
	case ast.Expr:
		return exprText(n)
	case *ast.DeclStmt:
		return "var"
	case *ast.EmptyStmt:
		return ";"
	default:
		return fmt.Sprintf("%T", n)
	}
}

func exprText(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprText(e.X) + "." + e.Sel.Name
	case *ast.CallExpr:
		return exprText(e.Fun) + "()"
	case *ast.UnaryExpr:
		return e.Op.String() + exprText(e.X)
	case *ast.BinaryExpr:
		return exprText(e.X) + e.Op.String() + exprText(e.Y)
	case *ast.ParenExpr:
		return "(" + exprText(e.X) + ")"
	case *ast.IndexExpr:
		return exprText(e.X) + "[]"
	case *ast.BasicLit:
		return e.Value
	case *ast.FuncLit:
		return "func(){}"
	case *ast.StarExpr:
		return "*" + exprText(e.X)
	case *ast.TypeAssertExpr:
		return exprText(e.X) + ".(T)"
	default:
		return fmt.Sprintf("%T", e)
	}
}

// BuildCFG constructs the CFG of a function body. It never fails:
// constructs it cannot model precisely (goto to a label it has not seen
// when the jump is forward) degrade to conservative edges rather than
// errors, so analyses stay sound-for-their-purpose on every function in
// the tree.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{g: &CFG{}}
	b.g.Entry = b.newBlock("entry")
	b.g.Exit = b.newBlock("exit")
	b.cur = b.g.Entry
	b.labels = make(map[string]*labelTargets)
	b.gotos = make(map[string]*Block)
	b.pendingGotos = make(map[string][]*Block)
	b.stmtList(body.List)
	b.jump(b.g.Exit) // fall off the end
	// Forward gotos to labels that never materialized (malformed source
	// survives parsing): send them to Exit so reachability stays sane.
	dangling := make([]string, 0, len(b.pendingGotos))
	for label := range b.pendingGotos {
		dangling = append(dangling, label)
	}
	sort.Strings(dangling)
	for _, label := range dangling {
		for _, s := range b.pendingGotos[label] {
			b.edge(s, b.g.Exit)
		}
	}
	return b.g
}

// labelTargets holds the break/continue destinations of one labeled
// loop or switch/select.
type labelTargets struct {
	breakTo    *Block
	continueTo *Block // nil for switch/select
}

type cfgBuilder struct {
	g   *CFG
	cur *Block

	// The innermost enclosing break/continue targets; label "" is the
	// unlabeled innermost construct. Stacked by loops/switches.
	breakStack    []*labelTargets
	labels        map[string]*labelTargets
	gotos         map[string]*Block   // label -> its block, once seen
	pendingGotos  map[string][]*Block // forward gotos awaiting a label
	pendingLabels []string            // labels attached to the next loop/switch
}

func (b *cfgBuilder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.g.Blocks), Kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

// jump ends the current block with an edge to target and leaves the
// builder on a fresh unreachable block (statements after a terminator
// parse but never run).
func (b *cfgBuilder) jump(target *Block) {
	b.edge(b.cur, target)
	b.cur = b.newBlock("dead")
	b.cur.unreachable = true
}

// startBlock begins kind at an already-created block and makes it
// current.
func (b *cfgBuilder) seal(next *Block) {
	b.edge(b.cur, next)
	b.cur = next
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) add(n ast.Node) { b.cur.Nodes = append(b.cur.Nodes, n) }

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		thenB := b.newBlock("then")
		var elseB *Block
		afterB := b.newBlock("if.after")
		if s.Else != nil {
			elseB = b.newBlock("else")
		} else {
			elseB = afterB
		}
		b.cond(s.Cond, thenB, elseB)
		b.cur = thenB
		b.stmtList(s.Body.List)
		b.seal(afterB)
		if s.Else != nil {
			b.cur = elseB
			b.stmt(s.Else)
			b.seal(afterB)
		}
		b.cur = afterB

	case *ast.ForStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.newBlock("for.head")
		body := b.newBlock("for.body")
		post := body
		after := b.newBlock("for.after")
		if s.Post != nil {
			post = b.newBlock("for.post")
		}
		b.seal(head)
		if s.Cond != nil {
			b.cur = head
			b.cond(s.Cond, body, after)
		} else {
			b.edge(head, body)
		}
		b.pushLoop(after, headOrPost(head, s.Post, post))
		b.cur = body
		b.stmtList(s.Body.List)
		if s.Post != nil {
			b.seal(post)
			b.stmt(s.Post)
			b.seal(head)
		} else {
			b.seal(head)
		}
		b.popLoop()
		b.cur = after

	case *ast.RangeStmt:
		// The range head both tests for exhaustion and binds the next
		// element; exhaustion (or channel close) exits to after.
		head := b.newBlock("range.head")
		body := b.newBlock("range.body")
		after := b.newBlock("range.after")
		b.add(s.X)
		b.seal(head)
		head.Nodes = append(head.Nodes, s)
		b.edge(head, body)
		b.edge(head, after)
		b.pushLoop(after, head)
		b.cur = body
		b.stmtList(s.Body.List)
		b.seal(head)
		b.popLoop()
		b.cur = after

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.switchBody(s.Body, false)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Assign)
		b.switchBody(s.Body, false)

	case *ast.SelectStmt:
		b.switchBody(s.Body, true)

	case *ast.LabeledStmt:
		switch s.Stmt.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			b.pendingLabels = append(b.pendingLabels, s.Label.Name)
			b.stmt(s.Stmt)
			delete(b.labels, s.Label.Name)
		default:
			// A plain labeled statement is a goto target.
			target := b.newBlock("label." + s.Label.Name)
			b.seal(target)
			b.gotos[s.Label.Name] = target
			for _, src := range b.pendingGotos[s.Label.Name] {
				b.edge(src, target)
			}
			delete(b.pendingGotos, s.Label.Name)
			b.stmt(s.Stmt)
		}

	case *ast.BranchStmt:
		label := ""
		if s.Label != nil {
			label = s.Label.Name
		}
		switch s.Tok {
		case token.BREAK:
			if t := b.branchTarget(label); t != nil && t.breakTo != nil {
				b.add(s)
				b.jump(t.breakTo)
			}
		case token.CONTINUE:
			if t := b.continueTarget(label); t != nil {
				b.add(s)
				b.jump(t.continueTo)
			}
		case token.GOTO:
			b.add(s)
			if target, ok := b.gotos[label]; ok {
				b.jump(target)
			} else {
				// Forward goto: resolve when the label appears.
				src := b.cur
				b.pendingGotos[label] = append(b.pendingGotos[label], src)
				b.cur = b.newBlock("dead")
				b.cur.unreachable = true
			}
		case token.FALLTHROUGH:
			// Handled structurally by switchBody.
			b.add(s)
		}

	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.g.Exit)

	case *ast.DeferStmt:
		b.add(s)
		b.g.Defers = append(b.g.Defers, s.Call)

	case *ast.ExprStmt:
		b.add(s)
		if isPanicOrExit(s.X) {
			b.jump(b.g.Exit)
		}

	case *ast.EmptyStmt:
		// nothing

	default:
		// Assign, Go, Send, IncDec, Decl — straight-line.
		b.add(s)
	}
}

// headOrPost picks the continue target of a for loop: the post block
// when one exists, else the head.
func headOrPost(head *Block, post ast.Stmt, postB *Block) *Block {
	if post != nil {
		return postB
	}
	return head
}

// switchBody lowers a switch/type-switch/select body: each clause gets
// its own block branching from the current one; break targets the
// shared after block. fallthrough chains a case block to the next
// clause's block. Select clauses additionally record their comm
// statement as the block's first node.
func (b *cfgBuilder) switchBody(body *ast.BlockStmt, isSelect bool) {
	afterKind := "switch.after"
	if isSelect {
		afterKind = "select.after"
	}
	after := b.newBlock(afterKind)
	b.pushSwitch(after)
	entry := b.cur
	b.cur = b.newBlock("dead")
	b.cur.unreachable = true

	var clauseBlocks []*Block
	var clauses []ast.Stmt
	hasDefault := false
	for _, c := range body.List {
		kind := "case"
		switch cc := c.(type) {
		case *ast.CaseClause:
			if cc.List == nil {
				hasDefault = true
				kind = "default"
			}
		case *ast.CommClause:
			if cc.Comm == nil {
				hasDefault = true
				kind = "default"
			}
		}
		if isSelect {
			kind = "select." + kind
		}
		blk := b.newBlock(kind)
		b.edge(entry, blk)
		clauseBlocks = append(clauseBlocks, blk)
		clauses = append(clauses, c)
	}
	if !hasDefault && !isSelect {
		// No default: the switch can fall through to after directly. A
		// select without default always blocks until a comm fires, so it
		// gets no such edge.
		b.edge(entry, after)
	}

	for i, c := range clauses {
		save := b.cur
		b.cur = clauseBlocks[i]
		var stmts []ast.Stmt
		switch cc := c.(type) {
		case *ast.CaseClause:
			for _, e := range cc.List {
				b.add(e)
			}
			stmts = cc.Body
		case *ast.CommClause:
			if cc.Comm != nil {
				b.stmt(cc.Comm)
			}
			stmts = cc.Body
		}
		fallsThrough := false
		for _, st := range stmts {
			if br, ok := st.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				fallsThrough = true
			}
			b.stmt(st)
		}
		if fallsThrough && i+1 < len(clauseBlocks) {
			b.seal(clauseBlocks[i+1])
		} else {
			b.seal(after)
		}
		b.cur = save
	}
	b.popLoop()
	b.cur = after
}

// cond lowers a condition expression with short-circuit decomposition:
// the current block evaluates the first operand and branches; derived
// blocks evaluate the rest. && and || inside ! and parens are handled
// by recursion.
func (b *cfgBuilder) cond(e ast.Expr, t, f *Block) {
	switch e := e.(type) {
	case *ast.ParenExpr:
		b.cond(e.X, t, f)
		return
	case *ast.UnaryExpr:
		if e.Op == token.NOT {
			b.cond(e.X, f, t)
			return
		}
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LAND:
			rhs := b.newBlock("cond.rhs")
			b.cond(e.X, rhs, f)
			b.cur = rhs
			b.cond(e.Y, t, f)
			return
		case token.LOR:
			rhs := b.newBlock("cond.rhs")
			b.cond(e.X, t, rhs)
			b.cur = rhs
			b.cond(e.Y, t, f)
			return
		}
	}
	b.add(e)
	b.edge(b.cur, t)
	b.edge(b.cur, f)
	b.cur = b.newBlock("dead")
	b.cur.unreachable = true
}

func (b *cfgBuilder) pushLoop(breakTo, continueTo *Block) {
	lt := &labelTargets{breakTo: breakTo, continueTo: continueTo}
	b.breakStack = append(b.breakStack, lt)
	for _, l := range b.pendingLabels {
		b.labels[l] = lt
	}
	b.pendingLabels = nil
}

func (b *cfgBuilder) pushSwitch(breakTo *Block) {
	lt := &labelTargets{breakTo: breakTo}
	b.breakStack = append(b.breakStack, lt)
	for _, l := range b.pendingLabels {
		b.labels[l] = lt
	}
	b.pendingLabels = nil
}

func (b *cfgBuilder) popLoop() { b.breakStack = b.breakStack[:len(b.breakStack)-1] }

// branchTarget resolves a break label: the named frame, or the
// innermost loop/switch/select.
func (b *cfgBuilder) branchTarget(label string) *labelTargets {
	if label != "" {
		return b.labels[label]
	}
	if len(b.breakStack) == 0 {
		return nil
	}
	return b.breakStack[len(b.breakStack)-1]
}

// continueTarget resolves a continue label: unlabeled continue targets
// the innermost *for*, skipping switch/select frames, which have no
// continue destination.
func (b *cfgBuilder) continueTarget(label string) *labelTargets {
	if label != "" {
		if t := b.labels[label]; t != nil && t.continueTo != nil {
			return t
		}
		return nil
	}
	for i := len(b.breakStack) - 1; i >= 0; i-- {
		if b.breakStack[i].continueTo != nil {
			return b.breakStack[i]
		}
	}
	return nil
}

// isPanicOrExit recognizes calls that never return: the builtin panic,
// os.Exit, log.Fatal*, and runtime.Goexit.
func isPanicOrExit(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		pkg, ok := fun.X.(*ast.Ident)
		if !ok {
			return false
		}
		switch pkg.Name + "." + fun.Sel.Name {
		case "os.Exit", "runtime.Goexit", "log.Fatal", "log.Fatalf", "log.Fatalln":
			return true
		}
	}
	return false
}
