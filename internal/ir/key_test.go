package ir_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"npra/internal/ir"
	"npra/internal/masm"
	"npra/internal/progen"
)

// keySample has a mov (whose Imm Format never prints), a label a branch
// names (loop) and one no branch names (tail).
const keySample = `func keyed
entry:
	set v0, 4096
	set v1, 8
	mov v2, v0
loop:
	load v3, [v2+0]
	addi v2, v2, 4
	subi v1, v1, 1
	bnz v1, loop
tail:
	store [64], v3
	halt
`

type keyCase struct {
	name string
	f    *ir.Func
}

// keyCorpus gathers bodies whose Format texts are equal in some pairs
// and differ in others, each along one axis the key must track (or
// ignore) exactly as Format does.
func keyCorpus(t *testing.T) []keyCase {
	t.Helper()
	var cs []keyCase
	add := func(name string, f *ir.Func) { cs = append(cs, keyCase{name, f}) }

	for seed := int64(1); seed <= 6; seed++ {
		add(fmt.Sprintf("structured/%d", seed), progen.FromSeed(seed, progen.DefaultStructured))
	}
	add("structured/1-again", progen.FromSeed(1, progen.DefaultStructured))
	for _, shape := range progen.Shapes() {
		for seed := int64(1); seed <= 4; seed++ {
			f, err := progen.FromSeedShape(shape, seed, progen.DefaultStructured)
			if err != nil {
				t.Fatalf("%s/%d: %v", shape, seed, err)
			}
			add(fmt.Sprintf("%s/%d", shape, seed), f)
		}
		f, err := progen.FromSeedShape(shape, 1, progen.DefaultStructured)
		if err != nil {
			t.Fatalf("%s/1: %v", shape, err)
		}
		add(string(shape)+"/1-again", f)
	}
	// Near-collision twins: the generator keeps only the low 30 bits of
	// the seed, so these two seeds print the same body, while seeds one
	// apart differ in a single immediate.
	add("nearcollision/twin-low", progen.GenerateNearCollision(5, progen.DefaultStructured))
	add("nearcollision/twin-high", progen.GenerateNearCollision(5+1<<30, progen.DefaultStructured))
	add("nearcollision/6", progen.GenerateNearCollision(6, progen.DefaultStructured))

	// The same register numbers spelled vN and rN.
	virt := progen.FromSeed(7, progen.DefaultStructured)
	phys := virt.Clone()
	phys.Physical = true
	add("physical/false", virt)
	add("physical/true", phys)
	// Without registers the spelling never shows, so Format is equal.
	noRegs := ir.MustParse("func idle\ne:\n\tctx\n\titer\n\thalt\n")
	noRegsPhys := noRegs.Clone()
	noRegsPhys.Physical = true
	add("noregs/virtual", noRegs)
	add("noregs/physical", noRegsPhys)

	base := ir.MustParse(keySample)
	add("sample", base)
	// Only a label differs: the loop label and the branch naming it.
	relabeled := base.Clone()
	for _, b := range relabeled.Blocks {
		if b.Label == "loop" {
			b.Label = "again"
		}
		for i := range b.Instrs {
			if b.Instrs[i].Target == "loop" {
				b.Instrs[i].Target = "again"
			}
		}
	}
	add("sample/relabeled", relabeled)
	// Only a label no branch names differs, so no target changes with it.
	exit := base.Clone()
	exit.Blocks[len(exit.Blocks)-1].Label = "exit"
	add("sample/relabeled-unreferenced", exit)
	// Only the name differs.
	renamed := base.Clone()
	renamed.Name = "keyed2"
	add("sample/renamed", renamed)
	// Fields Format does not print: Imm on mov, a target on a non-branch.
	unprinted := base.Clone()
	for _, b := range unprinted.Blocks {
		for i := range b.Instrs {
			switch b.Instrs[i].Op {
			case ir.OpMov:
				b.Instrs[i].Imm = 99
			case ir.OpAddI:
				b.Instrs[i].Target = "tail"
			}
		}
	}
	add("sample/unprinted-fields", unprinted)
	// A printed immediate does change the text.
	imm := base.Clone()
	imm.Blocks[0].Instrs[1].Imm = 9
	add("sample/imm", imm)
	return cs
}

// TestKeyMatchesFormat is the identity property: over every pair in the
// corpus, keys are equal exactly when Format texts are.
func TestKeyMatchesFormat(t *testing.T) {
	cs := keyCorpus(t)
	keys := make([]string, len(cs))
	texts := make([]string, len(cs))
	for i, c := range cs {
		keys[i], texts[i] = c.f.Key(), c.f.Format()
	}
	equal, distinct := 0, 0
	for i := range cs {
		for j := i + 1; j < len(cs); j++ {
			sameText := texts[i] == texts[j]
			if sameText {
				equal++
			} else {
				distinct++
			}
			if sameKey := keys[i] == keys[j]; sameKey != sameText {
				t.Errorf("%s vs %s: equal keys %v, equal Format %v", cs[i].name, cs[j].name, sameKey, sameText)
			}
		}
	}
	// The corpus is built to hold eight equal-text pairs: the five
	// regenerated bodies, the near-collision twins, the register-free
	// pair and the unprinted fields.
	if equal < 8 || distinct == 0 {
		t.Fatalf("corpus has %d equal-text and %d distinct pairs; the property is not exercised", equal, distinct)
	}
}

func TestKeyFrozenRepeatDoesNotAllocate(t *testing.T) {
	f := progen.FromSeed(1, progen.DefaultStructured)
	f.Freeze()
	want := f.Key()
	if n := testing.AllocsPerRun(100, func() { _ = f.Key() }); n != 0 {
		t.Errorf("repeated Key on a frozen func: %v allocs, want 0", n)
	}
	if got := f.Key(); got != want {
		t.Errorf("frozen key changed: %s -> %s", want, got)
	}
}

func TestKeyFrozenConcurrent(t *testing.T) {
	f := progen.FromSeed(2, progen.DefaultStructured)
	want := f.Key()
	f.Freeze()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if got := f.Key(); got != want {
					t.Errorf("concurrent Key = %s, want %s", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestKeyUnfrozenTracksMutation(t *testing.T) {
	f := ir.MustParse("func sparse\ne:\n\tset v0, 1\n\tset v7, 2\n\tadd v3, v0, v7\n\tstore [0], v3\n\thalt\n")
	before := f.Key()
	if f.Key() != before {
		t.Fatal("Key is not stable on an unchanged func")
	}
	f.RenumberRegs()
	if err := f.Build(); err != nil {
		t.Fatal(err)
	}
	after := f.Key()
	if after == before {
		t.Fatalf("key did not change after RenumberRegs+Build:\n%s", f.Format())
	}
	if want := ir.MustParse(f.Format()).Key(); after != want {
		t.Errorf("key after renumbering = %s, want the key of the renumbered text %s", after, want)
	}
}

// FuzzFuncKey checks the identity property on two assembled sources,
// each spelled virtual or physical. The seeds pair sources that spell
// the same body differently, so equal texts are in the corpus.
func FuzzFuncKey(f *testing.F) {
	f.Add(keySample, strings.ReplaceAll(keySample, "4096", "0x1000"), false, false)
	f.Add(keySample, strings.ReplaceAll(keySample, "loop", "again"), false, false)
	f.Add("func a\ne:\n\tset v0, 1\n\thalt\n", "func a\ne:\n set v0,1 ; one\n halt", false, true)
	f.Add("func a\ne:\n\tctx\n\thalt\n", "func a\ne:\n\tctx\n\thalt\n", false, true)
	f.Add("func m\ne:\n\tmov v1, v0\n\thalt\n", "func m\ne:\n\tmov v1, v0\n\thalt\n", true, true)
	f.Add("a:\n load v1, [v0+4]\n bnz v1, a\n halt", "a:\n load v1, [4]\n bnz v1, a\n halt", false, false)
	f.Add("x:\n store [v0-8], v1\n halt", "x:\n store [v0+-8], v1\n halt", true, false)
	f.Fuzz(func(t *testing.T, srcA, srcB string, physA, physB bool) {
		a, err := masm.Assemble(srcA)
		if err != nil {
			return
		}
		b, err := masm.Assemble(srcB)
		if err != nil {
			return
		}
		a.Physical, b.Physical = physA, physB
		sameKey, sameText := a.Key() == b.Key(), a.Format() == b.Format()
		if sameKey != sameText {
			t.Fatalf("equal keys %v, equal Format %v:\n%s\nvs\n%s", sameKey, sameText, a.Format(), b.Format())
		}
	})
}

var sinkKey string

func BenchmarkKey(b *testing.B) {
	f := progen.FromSeed(1, progen.DefaultStructured)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkKey = f.Key()
	}
}

func BenchmarkFormat(b *testing.B) {
	f := progen.FromSeed(1, progen.DefaultStructured)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkKey = f.Format()
	}
}
