// Fixture stub for the frozenfunc analyzer: a minimal core package
// (import path suffix /core) with the ThreadAlloc shape and a
// RewriteSource like the real seam.
package core

import "frozenfix/ir"

type ThreadAlloc struct {
	Name string
	PR   int
	F    *ir.Func
}

type Allocation struct {
	Threads []*ThreadAlloc
}

type RewriteStats struct {
	Moves int
}

type RewriteSource interface {
	LookupRewrite(key string, pr, sr int, privBase, sharedBase ir.Reg) (*ir.Func, RewriteStats, bool)
	StoreRewrite(key string, pr, sr int, privBase, sharedBase ir.Reg, canonical *ir.Func, stats RewriteStats) *ir.Func
}
