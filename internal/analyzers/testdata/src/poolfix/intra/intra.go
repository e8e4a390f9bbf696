// Fixture for the poolalias analyzer: *Piece pointers obtained before a
// scratch-context copyFrom/Reset dangle once the pooled backing array
// is rewritten — the PR-3 stale-alias bug class. The package poses as
// an intra package (import path suffix /intra) with its own Piece type.
package intra

type Piece struct {
	Color int
}

type Context struct {
	pieces []Piece
}

func (c *Context) copyFrom(o *Context) {
	c.pieces = append(c.pieces[:0], o.pieces...)
}

func (c *Context) Reset() { c.pieces = c.pieces[:0] }

func (c *Context) piece(i int) *Piece { return &c.pieces[i] }

// Coalesce is the seeded PR-3 regression: p is bound before copyFrom
// rewrites dst's pooled backing, then dereferenced after it.
func Coalesce(dst, src *Context) int {
	p := dst.piece(0)
	dst.copyFrom(src)
	return p.Color // want `use of \*Piece p bound before the copyFrom`
}

// CoalesceFixed rebinds after the reuse point: allowed.
func CoalesceFixed(dst, src *Context) int {
	dst.copyFrom(src)
	p := dst.piece(0)
	return p.Color
}

// cache outlives the call; storing a pooled *Piece into it is unsafe
// when a Reset follows in the same function.
type cache struct {
	best    *Piece
	bestVal Piece
}

// Remember stores an alias that a later Reset invalidates: flagged.
func Remember(c *cache, ctx *Context) {
	c.best = ctx.piece(1) // want `\*Piece stored into a structure that survives a later Reset`
	ctx.Reset()
}

// RememberValue copies the piece data instead of aliasing it: allowed.
func RememberValue(c *cache, ctx *Context) {
	c.bestVal = *ctx.piece(1)
	ctx.Reset()
}

// Snapshot's alias is into src, which is provably not the context being
// recycled; the justified suppression keeps it quiet.
func Snapshot(dst, src *Context) int {
	p := src.piece(0)
	dst.copyFrom(src)
	return p.Color //lint:ignore poolalias src is only read by copyFrom; its backing array is never recycled here
}

// NoKills never recycles storage, so aliases are fine.
func NoKills(ctx *Context) int {
	p := ctx.piece(0)
	q := ctx.piece(1)
	return p.Color + q.Color
}

// LoopCarried binds p before the loop; the copyFrom at the bottom of one
// iteration recycles the backing p reads at the top of the next.
func LoopCarried(dst, src *Context, n int) int {
	p := dst.piece(0)
	sum := 0
	for i := 0; i < n; i++ {
		sum += p.Color // want `use of \*Piece p bound before the copyFrom`
		dst.copyFrom(src)
	}
	return sum
}

// KillOnReturningBranch recycles only on a branch that returns, so the
// use on the other branch still reads live storage: allowed.
func KillOnReturningBranch(dst, src *Context, c bool) int {
	p := dst.piece(0)
	if c {
		dst.copyFrom(src)
		return 0
	}
	return p.Color
}

// ClosureAfterReuse defines a literal after the copyFrom: its body sees
// p as it is where the literal is defined, already stale.
func ClosureAfterReuse(dst, src *Context) func() int {
	p := dst.piece(0)
	dst.copyFrom(src)
	return func() int {
		return p.Color // want `use of \*Piece p bound before the copyFrom`
	}
}
