package funccache

import (
	"testing"

	"npra/internal/ir"
)

// TestBodyCacheHandsBackFrozenBodies pins the read-only contract: the
// body a miss compiles, and later hits share, is frozen, so a
// structural mutation fails loudly.
func TestBodyCacheHandsBackFrozenBodies(t *testing.T) {
	bc := NewBodyCache(4)
	build := func() (*ir.Func, error) { return genFunc(t, 1), nil }
	miss, err := bc.GetOrCompile("k1", build)
	if err != nil {
		t.Fatal(err)
	}
	hit, err := bc.GetOrCompile("k1", build)
	if err != nil {
		t.Fatal(err)
	}
	if hit != miss {
		t.Fatal("a hit did not return the cached body")
	}
	if !hit.Frozen() {
		t.Fatal("BodyCache returned an unfrozen body")
	}
	if err := hit.Build(); err == nil {
		t.Error("Build on a cached body succeeded; want the frozen-func error")
	}
}
