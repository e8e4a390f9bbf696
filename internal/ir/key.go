package ir

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// Item tags of the key encoding that no valid opcode (< opMax) takes: a
// label line, and an instruction Format prints as "invalid(N)".
const (
	blockTag      = 0xff
	opInvalidItem = 0xfe
)

// Key returns the function's content key: the hex sha256 of a compact
// binary encoding of exactly what Format prints — the name, each block
// label and, per instruction, its opcode plus the registers, immediate
// and target that Format prints for that opcode. Physical enters through
// each printed register, because that is the only place Format shows it.
// For functions whose names and labels are assembler identifiers
// (everything Parse, the Builder and the generators produce), two funcs
// have equal keys exactly when their Format text is equal; the key costs
// a few allocations where Format costs one per register.
//
// A frozen func computes its key on the first call and keeps it, so
// every later call is a load. An unfrozen func may still change, so its
// key is recomputed on every call.
func (f *Func) Key() string {
	if !f.frozen {
		return f.computeKey()
	}
	if k := f.key.Load(); k != nil {
		return *k
	}
	// Concurrent first calls may each compute the key; they store the
	// same value, so whichever Store lands last is as good as the first.
	k := f.computeKey()
	f.key.Store(&k)
	return k
}

func (f *Func) computeKey() string {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	buf := make([]byte, 0, 16+len(f.Name)+8*len(f.Blocks)+8*n)
	buf = appendString(buf, f.Name)
	for _, b := range f.Blocks {
		buf = append(buf, blockTag)
		buf = appendString(buf, b.Label)
		for i := range b.Instrs {
			buf = b.Instrs[i].appendKey(buf, f.Physical)
		}
	}
	sum := sha256.Sum256(buf)
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], sum[:])
	return string(out[:])
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// appendReg encodes a register as regName prints it: NoReg ("?") is 0,
// any other register carries its number and its r/v spelling.
func appendReg(buf []byte, r Reg, physical bool) []byte {
	if r == NoReg {
		return append(buf, 0)
	}
	code := uint64(int64(r)<<1^int64(r)>>63) << 1 // zigzag, then the spelling bit
	if physical {
		code |= 1
	}
	return binary.AppendUvarint(buf, code+1)
}

// appendKey is the binary twin of format: each case encodes exactly the
// fields the matching format case prints, in the same order.
func (in *Instr) appendKey(buf []byte, physical bool) []byte {
	if in.Op == OpInvalid || in.Op >= opMax {
		return append(buf, opInvalidItem, byte(in.Op))
	}
	buf = append(buf, byte(in.Op))
	switch in.Op {
	case OpSet, OpLoadA:
		buf = appendReg(buf, in.Def, physical)
		buf = binary.AppendVarint(buf, in.Imm)
	case OpMov, OpNot:
		buf = appendReg(buf, in.Def, physical)
		buf = appendReg(buf, in.A, physical)
	case OpTID:
		buf = appendReg(buf, in.Def, physical)
	case OpAdd, OpSub, OpAnd, OpOr, OpXor, OpShl, OpShr, OpMul:
		buf = appendReg(buf, in.Def, physical)
		buf = appendReg(buf, in.A, physical)
		buf = appendReg(buf, in.B, physical)
	case OpAddI, OpSubI, OpAndI, OpOrI, OpXorI, OpShlI, OpShrI, OpMulI, OpLoad:
		buf = appendReg(buf, in.Def, physical)
		buf = appendReg(buf, in.A, physical)
		buf = binary.AppendVarint(buf, in.Imm)
	case OpStore:
		buf = appendReg(buf, in.A, physical)
		buf = binary.AppendVarint(buf, in.Imm)
		buf = appendReg(buf, in.B, physical)
	case OpStoreA:
		buf = binary.AppendVarint(buf, in.Imm)
		buf = appendReg(buf, in.B, physical)
	case OpBr:
		buf = appendString(buf, in.Target)
	case OpBZ, OpBNZ:
		buf = appendReg(buf, in.A, physical)
		buf = appendString(buf, in.Target)
	case OpBEQ, OpBNE, OpBLT, OpBGE:
		buf = appendReg(buf, in.A, physical)
		buf = appendReg(buf, in.B, physical)
		buf = appendString(buf, in.Target)
	}
	return buf
}
