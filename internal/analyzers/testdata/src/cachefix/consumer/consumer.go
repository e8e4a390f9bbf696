// Fixture for the cachealias analyzer: consumers of the function cache
// must not keep *intra.Piece/Context/Allocator pointers past the
// checkin that returns the allocator to the cache.
package consumer

import "cachefix/intra"

// UseAfterCheckin is the bug class: the allocator is used after its
// checkin handed it to the cache.
func UseAfterCheckin(src *intra.Source) int {
	al, checkin, err := src.Checkout()
	if err != nil {
		return 0
	}
	cost := al.Solve(4, 2)
	checkin(true)
	return cost + al.Rewrite(4, 2) // want `use of al bound before the checkin`
}

// PieceAfterCheckin aliases a piece across the checkin.
func PieceAfterCheckin(src *intra.Source) int {
	al, checkin, err := src.Checkout()
	if err != nil {
		return 0
	}
	p := al.Piece(0)
	checkin(true)
	return p.Color // want `use of p bound before the checkin`
}

// DeferredCheckin is the idiomatic discipline: the deferred checkin
// runs after every use in the body, so nothing is flagged.
func DeferredCheckin(src *intra.Source) int {
	al, checkin, err := src.Checkout()
	if err != nil {
		return 0
	}
	ok := false
	defer func() { checkin(ok) }()
	cost := al.Solve(4, 2) + al.Rewrite(4, 2)
	ok = true
	return cost
}

// keep outlives the call; storing a cache-owned pointer into it when a
// checkin follows is flagged.
type keep struct {
	ctx *intra.Context
	val intra.Piece
}

// RetainContext stores an alias the checkin invalidates: flagged.
func RetainContext(k *keep, src *intra.Source) {
	al, checkin, err := src.Checkout()
	if err != nil {
		return
	}
	k.ctx = al.Context() // want `\*intra\.Context stored into a structure that survives the later checkin`
	checkin(true)
}

// RetainValue copies the piece data instead of aliasing it: allowed.
func RetainValue(k *keep, src *intra.Source) {
	al, checkin, err := src.Checkout()
	if err != nil {
		return
	}
	k.val = *al.Piece(0)
	checkin(true)
}

// RebindAfterCheckin checks a second allocator out after the first went
// back: the rebinding resets the clock, so the later uses are fine.
func RebindAfterCheckin(src *intra.Source) int {
	al, checkin, err := src.Checkout()
	if err != nil {
		return 0
	}
	cost := al.Solve(4, 2)
	checkin(true)
	al2, checkin2, err := src.Checkout()
	if err != nil {
		return 0
	}
	defer func() { checkin2(true) }()
	return cost + al2.Solve(2, 4)
}

// pool builds checkin closures the way funccache's checkinFunc does.
type pool struct{ src *intra.Source }

func (p *pool) checkinFunc(al *intra.Allocator) func(bool) { return func(bool) {} }

// ConstructCheckin calls the constructor, which checks nothing in: only
// the call through the returned func does, after the last use. Allowed.
func ConstructCheckin(p *pool) int {
	al, _, err := p.src.Checkout()
	if err != nil {
		return 0
	}
	checkin := p.checkinFunc(al)
	cost := al.Solve(4, 2)
	checkin(true)
	return cost
}

// CheckinInClosure defines a literal that checks in; defining it checks
// nothing in, so the use after the definition is fine.
func CheckinInClosure(src *intra.Source) int {
	al, checkin, err := src.Checkout()
	if err != nil {
		return 0
	}
	finish := func() { checkin(true) }
	cost := al.Solve(4, 2)
	finish()
	return cost
}

// RetainContextDeferred stores an alias that the deferred checkin
// invalidates at exit: flagged, since the structure outlives the call.
func RetainContextDeferred(k *keep, src *intra.Source) {
	al, checkin, err := src.Checkout()
	if err != nil {
		return
	}
	defer checkin(true)
	k.ctx = al.Context() // want `\*intra\.Context stored into a structure that survives the later checkin`
}
