// Fixture for the frozenfunc analyzer: holders of cache-shared
// rewritten bodies (ThreadAlloc.F, RewriteSource results) must never
// mutate them in place — they are frozen and shared by pointer.
package consumer

import (
	"frozenfix/core"
	"frozenfix/ir"
)

// BuildCachedBody is the bug class the runtime canary panics on: Build
// re-derives CFG state in place on a body another request may hold.
func BuildCachedBody(alloc *core.Allocation) error {
	f := alloc.Threads[0].F
	return f.Build() // want `Build on a cache-shared rewritten body`
}

// RenumberThreadBody mutates through the field directly.
func RenumberThreadBody(t *core.ThreadAlloc) {
	t.F.RenumberRegs() // want `RenumberRegs on a cache-shared rewritten body`
}

// WriteField writes through the shared body.
func WriteField(t *core.ThreadAlloc) {
	t.F.Name = "patched" // want `write through the cache-shared rewritten body t\.F`
}

// WriteElement reaches an element through the shared body.
func WriteElement(t *core.ThreadAlloc) {
	t.F.Blocks[0].Label = "l0" // want `write through the cache-shared rewritten body`
}

// MutateLookupResult mutates the body a rewrite cache served.
func MutateLookupResult(rc core.RewriteSource, key string) {
	body, _, ok := rc.LookupRewrite(key, 2, 1, 0, 2)
	if !ok {
		return
	}
	body.NumRegs = 7 // want `write through the cache-shared rewritten body body`
}

// MutateStoreResult mutates the relocated body StoreRewrite returned.
func MutateStoreResult(rc core.RewriteSource, key string, canon *ir.Func) {
	body := rc.StoreRewrite(key, 2, 1, 0, 2, canon, core.RewriteStats{})
	body.RenumberRegs() // want `RenumberRegs on a cache-shared rewritten body`
}

// ReadOnly uses are fine: formatting, cloning, pointer comparison.
func ReadOnly(t *core.ThreadAlloc) string {
	return t.F.Format()
}

// CloneThenMutate is the sanctioned pattern: the clone is caller-owned.
func CloneThenMutate(t *core.ThreadAlloc) {
	g := t.F.Clone()
	g.RenumberRegs()
	g.Name = "mine"
}

// RebindClearsTaint: after rebinding to a clone, later mutation is
// caller-owned; the mutation before the rebind is still flagged.
func RebindClearsTaint(t *core.ThreadAlloc) {
	f := t.F
	f.NumRegs = 1 // want `write through the cache-shared rewritten body f`
	f = f.Clone()
	f.NumRegs = 2
	_ = f
}

// SwapPointer replaces the field, not the shared body: allowed.
func SwapPointer(t *core.ThreadAlloc, g *ir.Func) {
	t.F = g
}

// RebindOnOneBranch clones on one branch only, so at the join f may
// still be the shared body.
func RebindOnOneBranch(t *core.ThreadAlloc, c bool) {
	f := t.F
	if c {
		f = f.Clone()
	}
	f.NumRegs = 1 // want `write through the cache-shared rewritten body f`
}
