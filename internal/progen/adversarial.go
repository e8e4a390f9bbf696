package progen

// Adversarial generators: program shapes built to defeat the cache
// hierarchy and stress the allocator's worst cases, not to look like
// realistic kernels. Each family targets one failure mode:
//
//	trampoline    — a deep chain of tiny blocks laid out in shuffled
//	                order, every hop a context-switch boundary, with a
//	                register set that stays live across the whole chain.
//	                Live ranges span dozens of CSBs, so the allocator's
//	                split budget is stretched across maximum depth and
//	                the rewriter's relocation sites multiply.
//	boundary      — a straight-line body with a CSB between every pair
//	                of computation instructions and every register live
//	                across every boundary: the boundary-dense worst case
//	                for split-budget allocation ("spill everywhere"
//	                territory — each boundary is a potential split of
//	                every live range).
//	palette       — a pressure staircase (wide phase → low-pressure
//	                counted loop → wide phase) whose (PR, SR) choice is
//	                maximally sensitive to the register budget. Driven
//	                under heterogeneous NReg profiles it churns the
//	                rewrite cache's palette tuples, defeating the
//	                canonical/exact split.
//	nearcollision — a fixed skeleton where only one immediate carries
//	                the seed: bodies differ in a single instruction, so
//	                thousands of distinct sha256 keys index near-
//	                identical content — hostile to every content-hashed
//	                tier (body cache, func cache, rewrite cache) at once.
//
// All shapes obey the structured generator's contract: deterministic
// from (shape, seed, cfg), structurally halting (counted loops only),
// and valid by construction (Build is a self-check, not a validator).

import (
	"fmt"
	"math/rand" //lint:ignore detlint seeded deterministic generator: rand.New(rand.NewSource(seed)) only, never the global PRNG

	"npra/internal/core/errs"
	"npra/internal/ir"
)

// Shape names an adversarial generator family. The empty shape is the
// default structured generator.
type Shape string

// The adversarial shapes. Each is deterministic from (seed, cfg).
const (
	ShapeTrampoline    Shape = "trampoline"
	ShapeBoundary      Shape = "boundary"
	ShapePalette       Shape = "palette"
	ShapeNearCollision Shape = "nearcollision"
)

// Shapes returns the adversarial generator families in a fixed order
// (the order workload harnesses cycle through).
func Shapes() []Shape {
	return []Shape{ShapeTrampoline, ShapeBoundary, ShapePalette, ShapeNearCollision}
}

// ValidShape reports whether s names a generator FromSeedShape accepts:
// the empty (structured) shape or one of Shapes.
func ValidShape(s Shape) bool {
	switch s {
	case "", ShapeTrampoline, ShapeBoundary, ShapePalette, ShapeNearCollision:
		return true
	}
	return false
}

// FromSeedShape materializes one function of the given shape over a
// fresh rand.NewSource(seed) PRNG: the same (shape, seed, cfg) always
// yields the same function. The empty shape is FromSeed (the default
// structured generator); unknown shapes are an error.
func FromSeedShape(shape Shape, seed int64, cfg StructuredConfig) (*ir.Func, error) {
	rng := rand.New(rand.NewSource(seed))
	switch shape {
	case "":
		return GenerateStructured(rng, cfg), nil
	case ShapeTrampoline:
		return GenerateTrampoline(rng, cfg), nil
	case ShapeBoundary:
		return GenerateBoundaryDense(rng, cfg), nil
	case ShapePalette:
		return GeneratePaletteThrash(rng, cfg), nil
	case ShapeNearCollision:
		return GenerateNearCollision(seed, cfg), nil
	}
	return nil, errs.Invalidf("progen: unknown shape %q", shape)
}

// advVars clamps the computation-register count to at least two (the
// structured generator's floor) so every shape is well-formed even at
// degenerate configs.
func advVars(cfg StructuredConfig) int {
	if cfg.MaxVars < 2 {
		return 2
	}
	return cfg.MaxVars
}

// advAddr draws one aligned absolute address inside the config's store
// window.
func advAddr(rng *rand.Rand, cfg StructuredConfig) int64 {
	w := cfg.StoreWindow
	if w < 4 {
		w = 4
	}
	return cfg.StoreBase + int64(rng.Intn(int(w)))&^3
}

// GenerateTrampoline returns a deep chain of tiny blocks: entry defines
// the full register set, then control bounces through 4×MaxDepth(+ up
// to MaxDepth) hop blocks emitted in shuffled layout order — each hop a
// Ctx boundary plus a little ALU work — before a final block that reads
// every register back. Every variable is live across every hop, so the
// per-boundary NSR is the whole set at maximum chain depth.
func GenerateTrampoline(rng *rand.Rand, cfg StructuredConfig) *ir.Func {
	bu := ir.NewBuilder("tramp")
	bu.Label("entry")
	n := advVars(cfg)
	vars := make([]ir.Reg, n)
	for i := range vars {
		vars[i] = bu.Set(int64(rng.Intn(1000)))
	}
	acc := bu.Set(int64(rng.Intn(1000)))

	depth := cfg.MaxDepth
	if depth < 1 {
		depth = 1
	}
	hops := 4*depth + rng.Intn(depth+1)
	// Shuffled layout: hop k (chain order) is emitted at position
	// order[k], so consecutive branches jump around the block list —
	// a trampoline, not a fallthrough ladder.
	order := rng.Perm(hops)
	labels := make([]string, hops)
	for k := range labels {
		labels[k] = fmt.Sprintf("hop%d", k)
	}
	bu.Br(labels[0])
	for _, k := range order {
		bu.Label(labels[k])
		bu.Ctx()
		ops := 1 + rng.Intn(2)
		for o := 0; o < ops; o++ {
			// Use-only rotation into the accumulator: no hop redefines a
			// variable, so every one stays live from entry to the tail.
			bu.Op3To(ir.OpAdd, acc, acc, vars[(k+o)%n])
		}
		if rng.Float64() < cfg.CSBDensity {
			bu.Emit(ir.Instr{Op: ir.OpStoreA, Def: ir.NoReg, A: ir.NoReg, B: acc,
				Imm: advAddr(rng, cfg)})
		}
		if k == hops-1 {
			bu.Br("tail")
		} else {
			bu.Br(labels[k+1])
		}
	}
	bu.Label("tail")
	for i, v := range vars {
		bu.Op3To(ir.OpXor, acc, acc, v)
		if i%3 == 0 {
			bu.Emit(ir.Instr{Op: ir.OpStoreA, Def: ir.NoReg, A: ir.NoReg, B: v,
				Imm: advAddr(rng, cfg)})
		}
	}
	bu.Emit(ir.Instr{Op: ir.OpStoreA, Def: ir.NoReg, A: ir.NoReg, B: acc,
		Imm: advAddr(rng, cfg)})
	bu.Halt()
	f, err := bu.Finish()
	if err != nil {
		panic("progen: trampoline generator produced invalid code: " + err.Error()) //lint:invariant generator self-check: the chain is a closed layout permutation with explicit terminators; Finish failure means the generator itself is broken
	}
	return f
}

// GenerateBoundaryDense returns a straight-line body with a context-
// switch boundary between every pair of computation instructions and
// the full register set live across every one of them: the number of
// live ranges crossing CSBs — the quantity the allocator's split budget
// pays for — is maximal for the body size.
func GenerateBoundaryDense(rng *rand.Rand, cfg StructuredConfig) *ir.Func {
	bu := ir.NewBuilder("bdense")
	bu.Label("entry")
	n := advVars(cfg)
	vars := make([]ir.Reg, n)
	for i := range vars {
		vars[i] = bu.Set(int64(rng.Intn(1000)))
	}
	acc := bu.Set(int64(rng.Intn(1000)))

	bodyLen := cfg.MaxBodyLen
	if bodyLen < 1 {
		bodyLen = 1
	}
	depth := cfg.MaxDepth
	if depth < 1 {
		depth = 1
	}
	segs := bodyLen * (depth + 1)
	for s := 0; s < segs; s++ {
		bu.Ctx()
		j := s % n
		// vars[j] is used and redefined across the boundary (a split at
		// both ends), and the accumulator chains every variable through,
		// so all n ranges cross all segs boundaries.
		bu.Op3To(ir.OpXor, vars[j], vars[j], acc)
		bu.Op3To(ir.OpAdd, acc, acc, vars[(s+1)%n])
		if rng.Float64() < cfg.CSBDensity {
			bu.Emit(ir.Instr{Op: ir.OpLoadA, Def: acc, A: ir.NoReg, B: ir.NoReg,
				Imm: advAddr(rng, cfg)})
		}
	}
	bu.Ctx()
	for _, v := range vars {
		bu.Op3To(ir.OpOr, acc, acc, v)
	}
	bu.Emit(ir.Instr{Op: ir.OpStoreA, Def: ir.NoReg, A: ir.NoReg, B: acc,
		Imm: advAddr(rng, cfg)})
	bu.Halt()
	f, err := bu.Finish()
	if err != nil {
		panic("progen: boundary generator produced invalid code: " + err.Error()) //lint:invariant generator self-check: straight-line code with a final halt; Finish failure means the generator itself is broken
	}
	return f
}

// GeneratePaletteThrash returns a pressure staircase: a wide phase
// where the whole register set is simultaneously live, a low-pressure
// counted loop with CSBs inside (the region where sharing registers
// pays), and a second wide phase that revives every variable. The
// (PR, SR) split that minimizes cost shifts sharply with the register
// budget, so the same body allocated under heterogeneous NReg profiles
// lands on different palette tuples — churning the rewrite cache's
// canonical/exact entries.
func GeneratePaletteThrash(rng *rand.Rand, cfg StructuredConfig) *ir.Func {
	bu := ir.NewBuilder("palette")
	bu.Label("entry")
	n := advVars(cfg)
	vars := make([]ir.Reg, n)
	for i := range vars {
		vars[i] = bu.Set(int64(rng.Intn(1000)))
	}
	// Wide phase: pairwise combines keep all n values live at once.
	acc := bu.Set(1)
	for i := 0; i < n-1; i++ {
		bu.Op3To(ir.OpAdd, acc, acc, vars[i])
		bu.Op3To(ir.OpXor, acc, acc, vars[i+1])
	}

	// Low-pressure counted loop: only the accumulator and the counter
	// are hot inside; the wide set idles across the loop's CSBs.
	trips := cfg.MaxTripCnt
	if trips < 1 {
		trips = 1
	}
	cnt := bu.Set(int64(1 + rng.Intn(trips)))
	bu.Label("loop")
	bu.Ctx()
	bu.OpITo(ir.OpAddI, acc, acc, int64(rng.Intn(256)))
	if rng.Float64() < cfg.CSBDensity {
		bu.Emit(ir.Instr{Op: ir.OpStoreA, Def: ir.NoReg, A: ir.NoReg, B: acc,
			Imm: advAddr(rng, cfg)})
	}
	bu.Ctx()
	bu.OpITo(ir.OpSubI, cnt, cnt, 1)
	bu.BNZ(cnt, "loop")

	// Second wide phase: every variable is read again, so all ranges
	// span the loop and its boundaries.
	for i := n - 1; i >= 0; i-- {
		bu.Op3To(ir.OpSub, acc, acc, vars[i])
	}
	bu.Emit(ir.Instr{Op: ir.OpStoreA, Def: ir.NoReg, A: ir.NoReg, B: acc,
		Imm: advAddr(rng, cfg)})
	bu.Halt()
	f, err := bu.Finish()
	if err != nil {
		panic("progen: palette generator produced invalid code: " + err.Error()) //lint:invariant generator self-check: one counted loop with an explicit back-branch; Finish failure means the generator itself is broken
	}
	return f
}

// GenerateNearCollision returns one of a family of bodies that share a
// fixed skeleton (derived from cfg alone, never from the seed) and
// differ only in a single immediate carrying the seed. Distinct seeds
// produce distinct content hashes over near-identical bodies: the
// hostile shape for every content-keyed tier, which must treat them as
// fully distinct entries (and evict honestly) rather than alias them.
func GenerateNearCollision(seed int64, cfg StructuredConfig) *ir.Func {
	bu := ir.NewBuilder("ncol")
	bu.Label("entry")
	n := advVars(cfg)
	vars := make([]ir.Reg, n)
	for i := range vars {
		vars[i] = bu.Set(int64(i*13 + 7)) // fixed skeleton values
	}
	// The single seed-dependent instruction: everything before and after
	// is byte-identical across the family.
	salt := bu.Set(seed & 0x3fffffff)

	bodyLen := cfg.MaxBodyLen
	if bodyLen < 1 {
		bodyLen = 1
	}
	w := cfg.StoreWindow
	if w < 4 {
		w = 4
	}
	for s := 0; s < bodyLen*4; s++ {
		if s%3 == 2 {
			bu.Ctx()
		}
		j := s % n
		bu.Op3To(ir.OpAdd, vars[j], vars[j], salt)
		bu.Op3To(ir.OpXor, salt, salt, vars[(s+1)%n])
	}
	bu.Emit(ir.Instr{Op: ir.OpStoreA, Def: ir.NoReg, A: ir.NoReg, B: salt,
		Imm: cfg.StoreBase + (int64(bodyLen)%w)&^3})
	bu.Halt()
	f, err := bu.Finish()
	if err != nil {
		panic("progen: nearcollision generator produced invalid code: " + err.Error()) //lint:invariant generator self-check: straight-line fixed skeleton; Finish failure means the generator itself is broken
	}
	return f
}
