package ir

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// Block is a labeled straight-line run of instructions. Control enters at
// the first instruction; it leaves through branches anywhere inside (the
// IR permits branches only as the last instruction of a block) or by
// falling through to the next block in Func.Blocks order.
type Block struct {
	Label  string
	Instrs []Instr

	// Computed by Func.Build.
	Index int   // position in Func.Blocks
	Succs []int // successor block indices
	Preds []int // predecessor block indices
	start int   // global point index of first instruction
}

// Func is a single compiled function: the unit of allocation. One thread
// runs one Func. NumRegs is the number of (virtual or physical) registers
// referenced; Physical records whether registers index the hardware file.
type Func struct {
	Name     string
	Blocks   []*Block
	NumRegs  int
	Physical bool

	built   bool
	frozen  bool
	nPoints int
	byLabel map[string]int
	pointBk []int32 // point -> block index

	key atomic.Pointer[string] // Key, kept once the func is frozen
}

// Freeze marks the function immutable: Build returns an error and
// RenumberRegs panics. Caches that hand one *Func to many concurrent
// readers freeze it first so an accidental structural mutation fails
// loudly instead of corrupting every holder. Freeze does not compute
// Key: a frozen func computes it on the first Key call and keeps it.
func (f *Func) Freeze() { f.frozen = true }

// Frozen reports whether Freeze has been called.
func (f *Func) Frozen() bool { return f.frozen }

// NumPoints returns the number of instructions (global program points).
// Valid after Build.
func (f *Func) NumPoints() int { return f.nPoints }

// Built reports whether Build has completed successfully.
func (f *Func) Built() bool { return f.built }

// BlockByLabel returns the index of the block with the given label, or -1.
func (f *Func) BlockByLabel(label string) int {
	if i, ok := f.byLabel[label]; ok {
		return i
	}
	return -1
}

// splitAtBranches normalizes the function so branches appear only as the
// last instruction of a block, splitting blocks after interior branches
// and inventing fall-through labels. This lets assembly sources (and the
// Builder) write several conditional branches inside one labeled region.
func (f *Func) splitAtBranches() {
	// Fast path: most functions (notably rewriter output, which already
	// ends every block at a branch) need no splitting. Skip the wholesale
	// re-copy so arena-backed blocks survive Build intact.
	needSplit := false
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if (in.IsBranch() || in.Op == OpHalt) && i != len(b.Instrs)-1 {
				needSplit = true
				break
			}
		}
		if needSplit {
			break
		}
	}
	if !needSplit {
		return
	}
	var out []*Block
	synth := 0
	for _, b := range f.Blocks {
		cur := &Block{Label: b.Label}
		out = append(out, cur)
		for i := range b.Instrs {
			in := b.Instrs[i]
			cur.Instrs = append(cur.Instrs, in)
			atEnd := i == len(b.Instrs)-1
			if (in.IsBranch() || in.Op == OpHalt) && !atEnd {
				synth++
				cur = &Block{Label: fmt.Sprintf(".%s.%d", b.Label, synth)}
				out = append(out, cur)
			}
		}
	}
	f.Blocks = out
}

// Build resolves labels, computes block successors/predecessors and global
// instruction numbering, and validates the function. It must be called
// after any structural mutation and before analyses run.
func (f *Func) Build() error {
	if f.frozen {
		return fmt.Errorf("ir: %s: Build on frozen func", f.Name)
	}
	f.built = false
	f.splitAtBranches()
	f.byLabel = make(map[string]int, len(f.Blocks))
	for i, b := range f.Blocks {
		if b.Label == "" {
			return fmt.Errorf("ir: %s: block %d has empty label", f.Name, i)
		}
		if _, dup := f.byLabel[b.Label]; dup {
			return fmt.Errorf("ir: %s: duplicate label %q", f.Name, b.Label)
		}
		f.byLabel[b.Label] = i
		b.Index = i
		b.Succs = b.Succs[:0]
		b.Preds = b.Preds[:0]
	}
	if len(f.Blocks) == 0 {
		return fmt.Errorf("ir: %s: no blocks", f.Name)
	}

	// Number points and collect successors.
	n := 0
	for _, b := range f.Blocks {
		b.start = n
		n += len(b.Instrs)
	}
	f.nPoints = n
	f.pointBk = make([]int32, n)
	for bi, b := range f.Blocks {
		if len(b.Instrs) == 0 {
			return fmt.Errorf("ir: %s: block %q is empty", f.Name, b.Label)
		}
		for k := range b.Instrs {
			f.pointBk[b.start+k] = int32(bi)
			in := &b.Instrs[k]
			if err := f.checkInstr(b, k, in); err != nil {
				return err
			}
			if in.IsBranch() || in.Op == OpHalt {
				if k != len(b.Instrs)-1 {
					return fmt.Errorf("ir: %s: %q instruction %d: %s not at block end", f.Name, b.Label, k, in.Op)
				}
			}
		}
		last := &b.Instrs[len(b.Instrs)-1]
		if last.IsBranch() {
			ti, ok := f.byLabel[last.Target]
			if !ok {
				return fmt.Errorf("ir: %s: %q: unknown branch target %q", f.Name, b.Label, last.Target)
			}
			b.Succs = append(b.Succs, ti)
		}
		if !last.IsUncond() {
			if bi+1 >= len(f.Blocks) {
				return fmt.Errorf("ir: %s: %q falls off the end of the function", f.Name, b.Label)
			}
			b.Succs = appendUnique(b.Succs, bi+1)
		}
	}
	for _, b := range f.Blocks {
		for _, s := range b.Succs {
			f.Blocks[s].Preds = append(f.Blocks[s].Preds, b.Index)
		}
	}
	f.built = true
	return nil
}

func appendUnique(xs []int, v int) []int {
	for _, x := range xs {
		if x == v {
			return xs
		}
	}
	return append(xs, v)
}

func (f *Func) checkInstr(b *Block, k int, in *Instr) error {
	if in.Op == OpInvalid || in.Op >= opMax {
		return fmt.Errorf("ir: %s: %q instruction %d: invalid opcode", f.Name, b.Label, k)
	}
	sh := opShapes[in.Op]
	chk := func(want bool, r Reg, what string) error {
		if want && r == NoReg {
			return fmt.Errorf("ir: %s: %q instruction %d (%s): missing %s operand", f.Name, b.Label, k, in.Op, what)
		}
		if !want && r != NoReg {
			return fmt.Errorf("ir: %s: %q instruction %d (%s): unexpected %s operand", f.Name, b.Label, k, in.Op, what)
		}
		if r != NoReg && (int(r) < 0 || int(r) >= f.NumRegs) {
			return fmt.Errorf("ir: %s: %q instruction %d (%s): register %d out of range [0,%d)", f.Name, b.Label, k, in.Op, r, f.NumRegs)
		}
		return nil
	}
	if err := chk(sh.d, in.Def, "def"); err != nil {
		return err
	}
	if err := chk(sh.a, in.A, "A"); err != nil {
		return err
	}
	if err := chk(sh.b, in.B, "B"); err != nil {
		return err
	}
	if sh.t && in.Target == "" {
		return fmt.Errorf("ir: %s: %q instruction %d (%s): missing branch target", f.Name, b.Label, k, in.Op)
	}
	return nil
}

// Instr returns the instruction at global point p.
func (f *Func) Instr(p int) *Instr {
	b := f.Blocks[f.pointBk[p]]
	return &b.Instrs[p-b.start]
}

// PointBlock returns the block containing global point p.
func (f *Func) PointBlock(p int) *Block { return f.Blocks[f.pointBk[p]] }

// BlockStart returns the global point index of the block's first instruction.
func (b *Block) Start() int { return b.start }

// End returns the global point index one past the block's last instruction.
func (b *Block) End() int { return b.start + len(b.Instrs) }

// PointSuccs appends the global points control may reach after executing
// point p. Fallthrough within a block is p+1; at a block end the successors
// are the entry points of the successor blocks.
func (f *Func) PointSuccs(p int, buf []int) []int {
	b := f.PointBlock(p)
	k := p - b.start
	in := &b.Instrs[k]
	if k+1 < len(b.Instrs) {
		if !in.IsUncond() {
			buf = append(buf, p+1)
		}
		if in.IsBranch() { // only possible at block end; defensive
			buf = append(buf, f.Blocks[f.byLabel[in.Target]].start)
		}
		return buf
	}
	for _, s := range b.Succs {
		buf = append(buf, f.Blocks[s].start)
	}
	return buf
}

// Clone returns a deep copy of the function. The copy is unbuilt if the
// original was, built otherwise.
func (f *Func) Clone() *Func {
	nf := &Func{Name: f.Name, NumRegs: f.NumRegs, Physical: f.Physical}
	nf.Blocks = make([]*Block, len(f.Blocks))
	for i, b := range f.Blocks {
		nb := &Block{Label: b.Label, Instrs: make([]Instr, len(b.Instrs))}
		copy(nb.Instrs, b.Instrs)
		nf.Blocks[i] = nb
	}
	if f.built {
		if err := nf.Build(); err != nil {
			panic("ir: Clone of built func failed to rebuild: " + err.Error()) //lint:invariant Clone copies a func that already Built successfully; re-Build can only fail if the IR was mutated mid-clone
		}
	}
	return nf
}

// CloneRemapRegs returns a deep copy of the function with every register
// operand r replaced by remap[r] and NumRegs set to numRegs. Unlike
// Clone, a built original yields a built copy without re-running Build:
// remapping registers changes no label, block boundary or branch target,
// so the CFG metadata is carried over (Succs/Preds are copied — Build
// truncates them in place — while byLabel and pointBk, which Build
// replaces wholesale, are shared). remap must be injective over the
// registers the function uses, with every remap[r] in [0, numRegs).
//
// The funccache records use this to relocate one cached
// canonical-palette body onto many concrete register palettes.
func (f *Func) CloneRemapRegs(remap []Reg, numRegs int) *Func {
	nf := &Func{
		Name:     f.Name,
		NumRegs:  numRegs,
		Physical: f.Physical,
		built:    f.built,
		nPoints:  f.nPoints,
		byLabel:  f.byLabel,
		pointBk:  f.pointBk,
	}
	nf.Blocks = make([]*Block, len(f.Blocks))
	for i, b := range f.Blocks {
		nb := &Block{
			Label:  b.Label,
			Instrs: make([]Instr, len(b.Instrs)),
			Index:  b.Index,
			start:  b.start,
		}
		if b.Succs != nil {
			nb.Succs = append([]int(nil), b.Succs...)
		}
		if b.Preds != nil {
			nb.Preds = append([]int(nil), b.Preds...)
		}
		for k := range b.Instrs {
			in := b.Instrs[k]
			if in.Def != NoReg {
				in.Def = remap[in.Def]
			}
			if in.A != NoReg {
				in.A = remap[in.A]
			}
			if in.B != NoReg {
				in.B = remap[in.B]
			}
			nb.Instrs[k] = in
		}
		nf.Blocks[i] = nb
	}
	return nf
}

// Stats summarizes static properties of a function.
type Stats struct {
	Instructions int
	CSBs         int // context-switch instructions (ctx/load/store)
	Branches     int
	Blocks       int
}

// Stats computes static instruction statistics.
func (f *Func) Stats() Stats {
	var s Stats
	s.Blocks = len(f.Blocks)
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			s.Instructions++
			if in.IsCSB() {
				s.CSBs++
			}
			if in.IsBranch() {
				s.Branches++
			}
		}
	}
	return s
}

// RegsUsed returns the sorted set of registers referenced by the function.
func (f *Func) RegsUsed() []Reg {
	seen := make(map[Reg]bool)
	var buf []Reg
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Def != NoReg {
				seen[in.Def] = true
			}
			buf = in.Uses(buf[:0])
			for _, r := range buf {
				seen[r] = true
			}
		}
	}
	out := make([]Reg, 0, len(seen))
	for r := range seen {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// RenumberRegs compacts register numbering to the dense range [0, n) and
// returns n. The function must be rebuilt by the caller if it was built.
func (f *Func) RenumberRegs() int {
	if f.frozen {
		panic("ir: RenumberRegs on frozen func " + f.Name) //lint:invariant frozen funcs are cache-shared read-only bodies; renumbering one in place would corrupt every concurrent holder
	}
	used := f.RegsUsed()
	remap := make(map[Reg]Reg, len(used))
	for i, r := range used {
		remap[r] = Reg(i)
	}
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Def != NoReg {
				in.Def = remap[in.Def]
			}
			if in.A != NoReg {
				in.A = remap[in.A]
			}
			if in.B != NoReg {
				in.B = remap[in.B]
			}
		}
	}
	f.NumRegs = len(used)
	return len(used)
}
