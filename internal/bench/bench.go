// Package bench provides the benchmark programs used in the paper's
// evaluation, re-written for the npra IR. The paper draws 11 kernels from
// CommBench, NetBench, Intel example code and the WRAPS packet scheduler;
// the original C sources target the IXP tool chain and proprietary packet
// traces, so these generators reproduce the *structural* properties the
// allocator sees — instruction mix (~10% context-switch instructions),
// loop shape, and the split between register pressure across context
// switches (boundary) and inside non-switch regions (internal):
//
//	md5, wraps_recv, wraps_send — high internal pressure (> 32: the
//	    per-thread baseline partition spills);
//	url, drr, l2l3fwd_*         — moderate pressure;
//	frag, fir2dim, crc32, route — low pressure.
//
// Every program is self-contained: it derives a private memory segment
// from its hardware thread id, fills its input area with an xorshift
// generator (stores — context switches — included, as real receive code
// would), then processes a configurable number of packets, marking each
// with an iter instruction and halting.
package bench

import (
	"sort"

	"npra/internal/core/errs"
	"npra/internal/ir"
)

// Memory layout constants shared with the experiment harness.
const (
	// MemWords is the simulator memory size used throughout.
	MemWords = 16384

	// SegShift: each thread's segment is 1<<SegShift bytes.
	SegShift = 13 // 8 KiB

	// SpillBase/SpillStride: per-thread spill areas for the Chaitin
	// baseline, placed above all thread segments.
	SpillBase   = 4 << SegShift // after 4 thread segments
	SpillStride = 1024
)

// Benchmark is one paper workload.
type Benchmark struct {
	Name        string
	Suite       string // commbench, netbench, intel, wraps
	Description string

	// Extra marks service kernels beyond the paper's 11 (they join the
	// kernel pools of perfbench's mix-warm workload and of loadgen's
	// kernel-mix gate test); Paper() excludes them so the §9 tables
	// keep the paper's shape.
	Extra bool

	// Gen builds the program processing npkts packets.
	Gen func(npkts int) *ir.Func
}

var registry []*Benchmark

func register(b *Benchmark) { registry = append(registry, b) }

// All returns the benchmarks in a stable order.
func All() []*Benchmark {
	out := make([]*Benchmark, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Paper returns the paper's 11 evaluation kernels in stable order,
// excluding the extra service kernels.
func Paper() []*Benchmark {
	var out []*Benchmark
	for _, b := range All() {
		if !b.Extra {
			out = append(out, b)
		}
	}
	return out
}

// Get returns the named benchmark or an error listing the valid names.
func Get(name string) (*Benchmark, error) {
	for _, b := range registry {
		if b.Name == name {
			return b, nil
		}
	}
	var names []string
	for _, b := range All() {
		names = append(names, b.Name)
	}
	return nil, errs.Invalidf("bench: unknown benchmark %q (have %v)", name, names)
}

// Names returns all benchmark names in stable order.
func Names() []string {
	var names []string
	for _, b := range All() {
		names = append(names, b.Name)
	}
	return names
}

// kern carries the shared scaffolding while a generator emits code.
type kern struct {
	bu   *ir.Builder
	base ir.Reg // byte address of this thread's memory segment
	pkts ir.Reg // remaining packet counter
}

// prologue emits thread-segment derivation and the input-fill loop
// (fillWords words of xorshift32 data at segment offset 0), then opens
// the per-packet loop. Returns the kernel scaffold.
func prologue(name string, npkts, fillWords int) *kern {
	bu := ir.NewBuilder(name)
	bu.Label("entry")
	tidr := bu.TID()
	base := bu.OpI(ir.OpShlI, tidr, SegShift)

	// Fill input area with deterministic pseudo-random words.
	s := bu.Set(0x9E3779B9)
	p := bu.Mov(base)
	i := bu.Set(int64(fillWords))
	bu.Label("fill")
	t := bu.OpI(ir.OpShlI, s, 13)
	bu.Op3To(ir.OpXor, s, s, t)
	bu.OpITo(ir.OpShrI, t, s, 17)
	bu.Op3To(ir.OpXor, s, s, t)
	bu.OpITo(ir.OpShlI, t, s, 5)
	bu.Op3To(ir.OpXor, s, s, t)
	bu.Store(p, 0, s)
	bu.OpITo(ir.OpAddI, p, p, 4)
	bu.OpITo(ir.OpSubI, i, i, 1)
	bu.BNZ(i, "fill")

	pkts := bu.Set(int64(npkts))
	bu.Label("pkt")
	return &kern{bu: bu, base: base, pkts: pkts}
}

// epilogue closes the per-packet loop and halts.
func (k *kern) epilogue() *ir.Func {
	bu := k.bu
	bu.Iter()
	bu.OpITo(ir.OpSubI, k.pkts, k.pkts, 1)
	bu.BNZ(k.pkts, "pkt")
	bu.Label("done")
	bu.Halt()
	return bu.MustFinish()
}

// pktOff returns a register holding base + (pkts*stride mod window) — a
// per-iteration input offset that stays inside the input area.
func (k *kern) pktOff(stride, windowWords int64) ir.Reg {
	bu := k.bu
	o := bu.OpI(ir.OpMulI, k.pkts, stride)
	o = bu.OpI(ir.OpAndI, o, (windowWords-1)*4)
	return bu.Op3(ir.OpAdd, k.base, o)
}

// wideFan loads nLoads input words at [p + i*4], expands them into width
// co-live temporaries (mixed xor/add/shift combinations), and reduces
// them into a single accumulator, which it returns. The temporaries are
// all live simultaneously right after the expansion — this is what drives
// a kernel's *internal* register pressure without touching the pressure
// across the loads themselves.
func (k *kern) wideFan(p ir.Reg, nLoads, width int) ir.Reg {
	bu := k.bu
	words := make([]ir.Reg, nLoads)
	for i := range words {
		words[i] = bu.Load(p, int64(i*4))
	}
	temps := make([]ir.Reg, width)
	ops := []ir.Op{ir.OpXor, ir.OpAdd, ir.OpSub, ir.OpOr}
	for i := range temps {
		a := words[i%nLoads]
		b := words[(i/2+1)%nLoads]
		t := bu.Op3(ops[i%len(ops)], a, b)
		if i%3 == 0 {
			t = bu.OpI(ir.OpShlI, t, int64(1+i%7))
		} else if i%3 == 1 {
			t = bu.OpI(ir.OpShrI, t, int64(1+i%5))
		}
		temps[i] = t
	}
	acc := temps[0]
	for _, t := range temps[1:] {
		acc = bu.Op3(ir.OpXor, acc, t)
	}
	return acc
}
