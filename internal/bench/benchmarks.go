package bench

import "npra/internal/ir"

// Offsets (in bytes) inside a thread's 8 KiB segment: inputs occupy at
// most 1 KiB, results start at 2 KiB, mutable scheduler/queue state at
// 4 KiB (everything stays well inside the segment).
const (
	inOff    = 0    // input/packet area
	outOff   = 2048 // results
	stateOff = 4096 // per-flow / queue state
)

func init() {
	register(&Benchmark{
		Name: "frag", Suite: "commbench",
		Description: "IP fragmentation: header checksum over packet words, two fragment headers emitted",
		Gen:         genFrag,
	})
	register(&Benchmark{
		Name: "md5", Suite: "netbench",
		Description: "MD5-style message digest: four unrolled round groups with wide temporary fan-out",
		Gen:         genMD5,
	})
	register(&Benchmark{
		Name: "fir2dim", Suite: "intel",
		Description: "3x3 2-D FIR filter over a pixel window",
		Gen:         genFir2dim,
	})
	register(&Benchmark{
		Name: "l2l3fwd_recv", Suite: "intel",
		Description: "L2/L3 forwarding, receive side: header validation, TTL update, enqueue",
		Gen:         genL2L3Recv,
	})
	register(&Benchmark{
		Name: "l2l3fwd_send", Suite: "intel",
		Description: "L2/L3 forwarding, send side: dequeue, MAC rewrite, transmit",
		Gen:         genL2L3Send,
	})
	register(&Benchmark{
		Name: "wraps_recv", Suite: "wraps",
		Description: "WRAPS scheduler receive: wide per-queue weighted priority computation",
		Gen:         genWrapsRecv,
	})
	register(&Benchmark{
		Name: "wraps_send", Suite: "wraps",
		Description: "WRAPS scheduler send: weighted selection across queues with deficit update",
		Gen:         genWrapsSend,
	})
	register(&Benchmark{
		Name: "url", Suite: "netbench",
		Description: "URL pattern match over payload words",
		Gen:         genURL,
	})
	register(&Benchmark{
		Name: "drr", Suite: "commbench",
		Description: "Deficit round-robin scheduling: quantum/deficit bookkeeping",
		Gen:         genDRR,
	})
	register(&Benchmark{
		Name: "crc32", Suite: "commbench",
		Description: "Word-at-a-time CRC over the packet payload",
		Gen:         genCRC32,
	})
	register(&Benchmark{
		Name: "route", Suite: "netbench",
		Description: "Multi-level table IP route lookup (pointer-chasing loads)",
		Gen:         genRoute,
	})
	// Service kernels beyond the paper's 11: they diversify the kernel
	// pools of perfbench's mix-warm workload and of loadgen's kernel-mix
	// gate test (pressure-testing the rewrite cache across scenario
	// shapes) but stay out of the §9 tables.
	register(&Benchmark{
		Name: "ipv6_fwd", Suite: "intel", Extra: true,
		Description: "IPv6 forwarding: hop-limit update, prefix-hash next-hop lookup over the destination address",
		Gen:         genIPv6Fwd,
	})
	register(&Benchmark{
		Name: "aes_round", Suite: "netbench", Extra: true,
		Description: "AES-style cipher round: sub/shift/mix bursts over four state words plus round key",
		Gen:         genAESRound,
	})
	register(&Benchmark{
		Name: "dpi_scan", Suite: "netbench", Extra: true,
		Description: "DPI-style signature scan: byte-shifted windows over payload words against masked patterns",
		Gen:         genDPIScan,
	})
}

// genFrag: CommBench frag — the paper's running example (Figure 4 is its
// checksum loop). Low pressure; checksum accumulates over header words.
func genFrag(npkts int) *ir.Func {
	k := prologue("frag", npkts, 64)
	bu := k.bu
	p := k.pktOff(20, 32)
	sum := bu.Set(0)
	for i := 0; i < 5; i++ { // 5 header words
		w := bu.Load(p, int64(i*4))
		lo := bu.OpI(ir.OpAndI, w, 0xFFFF)
		hi := bu.OpI(ir.OpShrI, w, 16)
		bu.Op3To(ir.OpAdd, sum, sum, lo)
		bu.Op3To(ir.OpAdd, sum, sum, hi)
	}
	// Fold carries twice and complement.
	fold := bu.OpI(ir.OpShrI, sum, 16)
	bu.OpITo(ir.OpAndI, sum, sum, 0xFFFF)
	bu.Op3To(ir.OpAdd, sum, sum, fold)
	fold2 := bu.OpI(ir.OpShrI, sum, 16)
	bu.Op3To(ir.OpAdd, sum, sum, fold2)
	ck := bu.OpI(ir.OpXorI, sum, 0xFFFF)
	// Emit two fragment headers: original + offset variant.
	out := bu.Op3(ir.OpAdd, k.base, bu.Set(outOff))
	bu.Store(out, 0, ck)
	frag2 := bu.OpI(ir.OpOrI, ck, 0x2000) // more-fragments flag
	bu.Store(out, 4, frag2)
	return k.epilogue()
}

// genMD5: NetBench md5 — the paper's performance-critical thread in
// scenarios 1 and 2. Four unrolled round groups, each loading a block of
// message words and fanning out into ~8 co-live temporaries per group
// while the running digest stays live: internal pressure well above the
// 32-register baseline partition, boundary pressure modest.
func genMD5(npkts int) *ir.Func {
	k := prologue("md5", npkts, 256)
	bu := k.bu
	a := bu.Set(0x67452301)
	b := bu.Set(0xEFCDAB89 - (1 << 32)) // sign-safe immediate
	c := bu.Set(0x98BADCFE - (1 << 32))
	d := bu.Set(0x10325476)
	p := k.pktOff(64, 128)
	for round := 0; round < 4; round++ {
		mix := k.wideFan(p, 4, 27)
		// F/G/H/I-style combiner per round.
		var f ir.Reg
		switch round {
		case 0:
			t1 := bu.Op3(ir.OpAnd, b, c)
			t2 := bu.Op3(ir.OpAnd, bu.Op3(ir.OpXor, b, bu.Set(-1)), d)
			f = bu.Op3(ir.OpOr, t1, t2)
		case 1:
			t1 := bu.Op3(ir.OpAnd, d, b)
			t2 := bu.Op3(ir.OpAnd, bu.Op3(ir.OpXor, d, bu.Set(-1)), c)
			f = bu.Op3(ir.OpOr, t1, t2)
		case 2:
			f = bu.Op3(ir.OpXor, bu.Op3(ir.OpXor, b, c), d)
		default:
			t1 := bu.Op3(ir.OpOr, b, bu.Op3(ir.OpXor, d, bu.Set(-1)))
			f = bu.Op3(ir.OpXor, c, t1)
		}
		sum := bu.Op3(ir.OpAdd, a, f)
		bu.Op3To(ir.OpAdd, sum, sum, mix)
		// Rotate-left by a round-dependent amount.
		rl := bu.OpI(ir.OpShlI, sum, int64(7+round*5))
		rr := bu.OpI(ir.OpShrI, sum, int64(32-(7+round*5)))
		rot := bu.Op3(ir.OpOr, rl, rr)
		// a,b,c,d = d, b+rot, b, c
		newB := bu.Op3(ir.OpAdd, b, rot)
		olda := a
		bu.MovTo(olda, d) // a <- d
		bu.MovTo(d, c)
		bu.MovTo(c, b)
		bu.MovTo(b, newB)
		p = bu.OpI(ir.OpAddI, p, 16)
		bu.Ctx() // voluntary yield for fair CPU sharing (paper §1.1)
	}
	out := bu.Op3(ir.OpAdd, k.base, bu.Set(outOff+16))
	bu.Store(out, 0, a)
	bu.Store(out, 4, b)
	bu.Store(out, 8, c)
	bu.Store(out, 12, d)
	return k.epilogue()
}

// genFir2dim: a register-blocked 3x3 2-D FIR filter: one fresh pixel
// column is loaded per output (three loads); the other two window columns
// are propagated in registers, as production stencil code does to spare
// both memory bandwidth and the load/context-switch rate. All nine window
// values are co-live at the multiply burst, so boundary pressure is
// moderate and internal pressure small.
func genFir2dim(npkts int) *ir.Func {
	k := prologue("fir2dim", npkts, 128)
	bu := k.bu
	p := k.pktOff(12, 64)
	coeff := []int64{1, 2, 1, 2, 4, 2, 1, 2, 1}
	var px [9]ir.Reg
	// Fresh column (three loads).
	for r := 0; r < 3; r++ {
		px[r*3+2] = bu.Load(p, int64(r*16))
	}
	// Propagated columns, synthesized in registers from the fresh one
	// (register-blocked reuse of the previous window positions).
	for r := 0; r < 3; r++ {
		px[r*3+1] = bu.OpI(ir.OpShrI, px[r*3+2], 1)
		px[r*3] = bu.Op3(ir.OpXor, px[r*3+1], px[(r+1)%3*3+2])
	}
	acc := bu.OpI(ir.OpMulI, px[0], coeff[0])
	for i := 1; i < 9; i++ {
		t := bu.OpI(ir.OpMulI, px[i], coeff[i])
		bu.Op3To(ir.OpAdd, acc, acc, t)
	}
	res := bu.OpI(ir.OpShrI, acc, 4) // normalize by 16
	out := bu.Op3(ir.OpAdd, k.base, bu.Set(outOff+64))
	bu.Store(out, 0, res)
	return k.epilogue()
}

// genL2L3Recv: receive-side forwarding: validate ethertype, decrement
// TTL with checksum fix-up, enqueue the descriptor. Branchy, moderate.
func genL2L3Recv(npkts int) *ir.Func {
	k := prologue("l2l3fwd_recv", npkts, 128)
	bu := k.bu
	p := k.pktOff(24, 64)
	w0 := bu.Load(p, 0) // dst MAC hi
	w1 := bu.Load(p, 4) // dst MAC lo | ethertype
	ety := bu.OpI(ir.OpShrI, w1, 16)
	isIP := bu.Op3(ir.OpSub, ety, bu.Set(0x0800))
	bu.BNZ(isIP, "drop")
	ipw := bu.Load(p, 8) // ver/ttl/proto
	ttl := bu.OpI(ir.OpShrI, ipw, 8)
	bu.OpITo(ir.OpAndI, ttl, ttl, 0xFF)
	bu.BZ(ttl, "drop")
	// Decrement TTL, incremental checksum adjust.
	nt := bu.OpI(ir.OpSubI, ttl, 1)
	masked := bu.Op3(ir.OpAnd, ipw, bu.Set(-0xFF01)) // clear TTL byte
	sh := bu.OpI(ir.OpShlI, nt, 8)
	neww := bu.Op3(ir.OpOr, masked, sh)
	ck := bu.Load(p, 12)
	bu.OpITo(ir.OpAddI, ck, ck, 0x100) // RFC1624-style adjust (approx.)
	// Enqueue: descriptor ring at stateOff.
	qh := bu.Op3(ir.OpAdd, k.base, bu.Set(stateOff))
	idx := bu.Load(qh, 0)
	slot := bu.OpI(ir.OpAndI, idx, 15)
	sb := bu.OpI(ir.OpShlI, slot, 3)
	sp := bu.Op3(ir.OpAdd, qh, sb)
	bu.Store(sp, 16, neww)
	bu.Store(sp, 20, ck)
	ni := bu.OpI(ir.OpAddI, idx, 1)
	bu.Store(qh, 0, ni)
	bu.Op3To(ir.OpXor, w0, w0, w0) // consume header regs
	bu.Br("next")
	bu.Label("drop")
	dc := bu.Op3(ir.OpAdd, k.base, bu.Set(stateOff+256))
	old := bu.Load(dc, 0)
	bu.OpITo(ir.OpAddI, old, old, 1)
	bu.Store(dc, 0, old)
	bu.Label("next")
	return k.epilogue()
}

// genL2L3Send: send-side forwarding: dequeue a descriptor, rewrite source
// and destination MACs, emit, advance the ring.
func genL2L3Send(npkts int) *ir.Func {
	k := prologue("l2l3fwd_send", npkts, 128)
	bu := k.bu
	qh := bu.Op3(ir.OpAdd, k.base, bu.Set(stateOff))
	idx := bu.Load(qh, 4) // consumer index
	slot := bu.OpI(ir.OpAndI, idx, 15)
	sb := bu.OpI(ir.OpShlI, slot, 3)
	sp := bu.Op3(ir.OpAdd, qh, sb)
	hdr := bu.Load(sp, 16)
	ck := bu.Load(sp, 20)
	// MAC rewrite from the forwarding table keyed by low header bits.
	key := bu.OpI(ir.OpAndI, hdr, 7)
	kb := bu.OpI(ir.OpShlI, key, 2)
	tbl := bu.Op3(ir.OpAdd, k.base, bu.Set(stateOff+512))
	ta := bu.Op3(ir.OpAdd, tbl, kb)
	mac := bu.Load(ta, 0)
	newHdr := bu.Op3(ir.OpXor, hdr, mac)
	sum := bu.Op3(ir.OpAdd, newHdr, ck)
	out := bu.Op3(ir.OpAdd, k.base, bu.Set(outOff+128))
	bu.Store(out, 0, newHdr)
	bu.Store(out, 4, sum)
	ni := bu.OpI(ir.OpAddI, idx, 1)
	bu.Store(qh, 4, ni)
	return k.epilogue()
}

// genWrapsRecv: the WRAPS scheduler's receive half (the paper's scenario
// 3 critical thread): classify the packet, then compute weighted
// priorities for all queues in one wide burst — the highest internal
// pressure in the suite.
func genWrapsRecv(npkts int) *ir.Func {
	k := prologue("wraps_recv", npkts, 256)
	bu := k.bu
	p := k.pktOff(32, 128)
	mix := k.wideFan(p, 5, 30) // wide weighted-priority computation
	bu.Ctx()                   // voluntary yield for fair CPU sharing
	// Classify into one of 8 queues and bump its length.
	q := bu.OpI(ir.OpAndI, mix, 7)
	qb := bu.OpI(ir.OpShlI, q, 2)
	qs := bu.Op3(ir.OpAdd, k.base, bu.Set(stateOff+1024))
	qa := bu.Op3(ir.OpAdd, qs, qb)
	qlen := bu.Load(qa, 0)
	nq := bu.OpI(ir.OpAddI, qlen, 1)
	bu.Store(qa, 0, nq)
	out := bu.Op3(ir.OpAdd, k.base, bu.Set(outOff+192))
	bu.Store(out, 0, mix)
	return k.epilogue()
}

// genWrapsSend: the send half: weighted selection across queues with a
// wide scoring burst, deficit update for the winner.
func genWrapsSend(npkts int) *ir.Func {
	k := prologue("wraps_send", npkts, 256)
	bu := k.bu
	p := k.pktOff(28, 128)
	score := k.wideFan(p, 4, 31)
	bu.Ctx() // voluntary yield for fair CPU sharing
	// Select queue by score, decrement its length if nonzero.
	q := bu.OpI(ir.OpShrI, score, 29) // top 3 bits
	qb := bu.OpI(ir.OpShlI, q, 2)
	qs := bu.Op3(ir.OpAdd, k.base, bu.Set(stateOff+1024))
	qa := bu.Op3(ir.OpAdd, qs, qb)
	qlen := bu.Load(qa, 0)
	bu.BZ(qlen, "empty")
	dq := bu.OpI(ir.OpSubI, qlen, 1)
	bu.Store(qa, 0, dq)
	out := bu.Op3(ir.OpAdd, k.base, bu.Set(outOff+256))
	bu.Store(out, 0, score)
	bu.Br("sent")
	bu.Label("empty")
	miss := bu.Op3(ir.OpAdd, k.base, bu.Set(stateOff+1280))
	m := bu.Load(miss, 0)
	bu.OpITo(ir.OpAddI, m, m, 1)
	bu.Store(miss, 0, m)
	bu.Label("sent")
	return k.epilogue()
}

// genURL: match payload words against four masked patterns; moderate
// internal pressure from the pattern comparison fan.
func genURL(npkts int) *ir.Func {
	k := prologue("url", npkts, 128)
	bu := k.bu
	p := k.pktOff(16, 64)
	var words [6]ir.Reg
	for i := range words {
		words[i] = bu.Load(p, int64(i*4))
	}
	patterns := []int64{0x2F696E64, 0x2E68746D, 0x2F617069, 0x63676942}
	match := bu.Set(0)
	for pi, pat := range patterns {
		pr := bu.Set(pat)
		for wi := 0; wi < 4; wi++ {
			x := bu.Op3(ir.OpXor, words[(pi+wi)%len(words)], pr)
			lo := bu.OpI(ir.OpAndI, x, 0xFFFF)
			hi := bu.OpI(ir.OpShrI, x, 16)
			hit := bu.Op3(ir.OpOr, lo, hi)
			bu.BNZ(hit, nextLabel(pi, wi))
			bu.OpITo(ir.OpOrI, match, match, 1<<uint(pi))
			bu.Label(nextLabel(pi, wi))
		}
	}
	out := bu.Op3(ir.OpAdd, k.base, bu.Set(outOff+320))
	bu.Store(out, 0, match)
	return k.epilogue()
}

func nextLabel(pi, wi int) string {
	return "m" + string(rune('a'+pi)) + string(rune('0'+wi))
}

// genDRR: deficit round robin — quantum accounting with branches.
func genDRR(npkts int) *ir.Func {
	k := prologue("drr", npkts, 64)
	bu := k.bu
	qs := bu.Op3(ir.OpAdd, k.base, bu.Set(stateOff+1536))
	cur := bu.Load(qs, 0) // current queue
	q := bu.OpI(ir.OpAndI, cur, 3)
	qb := bu.OpI(ir.OpShlI, q, 3)
	qa := bu.Op3(ir.OpAdd, qs, qb)
	deficit := bu.Load(qa, 8)
	p := k.pktOff(8, 32)
	plen := bu.Load(p, 0)
	bu.OpITo(ir.OpAndI, plen, plen, 0x3FF) // packet length 0..1023
	bu.Op3To(ir.OpAdd, deficit, deficit, bu.Set(512))
	bu.BLT(deficit, plen, "defer")
	bu.Op3To(ir.OpSub, deficit, deficit, plen)
	out := bu.Op3(ir.OpAdd, k.base, bu.Set(outOff+384))
	bu.Store(out, 0, plen)
	bu.Br("store")
	bu.Label("defer")
	nc := bu.OpI(ir.OpAddI, cur, 1)
	bu.Store(qs, 0, nc)
	bu.Label("store")
	bu.Store(qa, 8, deficit)
	return k.epilogue()
}

// genCRC32: word-at-a-time CRC-ish folding over eight payload words.
func genCRC32(npkts int) *ir.Func {
	k := prologue("crc32", npkts, 128)
	bu := k.bu
	p := k.pktOff(32, 64)
	crc := bu.Set(-1)
	for i := 0; i < 8; i++ {
		w := bu.Load(p, int64(i*4))
		bu.Op3To(ir.OpXor, crc, crc, w)
		// Two branch-free polynomial folds per word.
		for j := 0; j < 2; j++ {
			top := bu.OpI(ir.OpShrI, crc, 31)
			poly := bu.OpI(ir.OpMulI, top, 0x04C11DB7)
			sh := bu.OpI(ir.OpShlI, crc, 1)
			bu.Op3To(ir.OpXor, crc, sh, poly)
		}
	}
	out := bu.Op3(ir.OpAdd, k.base, bu.Set(outOff+448))
	fin := bu.OpI(ir.OpXorI, crc, -1)
	bu.Store(out, 0, fin)
	return k.epilogue()
}

// genRoute: three-level route table walk — serialized dependent loads,
// so context switches dominate the instruction mix.
func genRoute(npkts int) *ir.Func {
	k := prologue("route", npkts, 256)
	bu := k.bu
	p := k.pktOff(16, 64)
	ip := bu.Load(p, 0)
	tbl := bu.Op3(ir.OpAdd, k.base, bu.Set(inOff)) // reuse filled area as tables
	i1 := bu.OpI(ir.OpShrI, ip, 26)                // 6 bits
	b1 := bu.OpI(ir.OpShlI, i1, 2)
	a1 := bu.Op3(ir.OpAdd, tbl, b1)
	n1 := bu.Load(a1, 0)
	i2 := bu.Op3(ir.OpXor, n1, ip)
	bu.OpITo(ir.OpAndI, i2, i2, 63)
	b2 := bu.OpI(ir.OpShlI, i2, 2)
	a2 := bu.Op3(ir.OpAdd, tbl, b2)
	n2 := bu.Load(a2, 0)
	i3 := bu.Op3(ir.OpXor, n2, n1)
	bu.OpITo(ir.OpAndI, i3, i3, 63)
	b3 := bu.OpI(ir.OpShlI, i3, 2)
	a3 := bu.Op3(ir.OpAdd, tbl, b3)
	hop := bu.Load(a3, 0)
	out := bu.Op3(ir.OpAdd, k.base, bu.Set(outOff+512))
	bu.Store(out, 0, hop)
	bu.Store(out, 4, ip)
	return k.epilogue()
}

// genIPv6Fwd: IPv6 forwarding: hop-limit check and decrement, then a
// prefix-hash next-hop lookup — the four destination-address words stay
// co-live through the hash, so pressure is moderate and branchy like the
// l2l3fwd pair but with a wider address fan.
func genIPv6Fwd(npkts int) *ir.Func {
	k := prologue("ipv6_fwd", npkts, 128)
	bu := k.bu
	p := k.pktOff(40, 64)
	vtc := bu.Load(p, 0) // version/traffic class/flow label
	pln := bu.Load(p, 4) // payload len | next header | hop limit
	hop := bu.OpI(ir.OpAndI, pln, 0xFF)
	bu.BZ(hop, "expired")
	// Destination address: four words, all co-live through the hash.
	var dst [4]ir.Reg
	for i := range dst {
		dst[i] = bu.Load(p, int64(24+i*4))
	}
	// /64-prefix hash: fold the top two words, avalanche, index the table.
	h := bu.Op3(ir.OpXor, dst[0], dst[1])
	t := bu.OpI(ir.OpShrI, h, 13)
	bu.Op3To(ir.OpXor, h, h, t)
	bu.OpITo(ir.OpMulI, h, h, 0x85EBCA6B-(1<<32)) // sign-safe immediate
	t2 := bu.OpI(ir.OpShrI, h, 16)
	bu.Op3To(ir.OpXor, h, h, t2)
	idx := bu.OpI(ir.OpAndI, h, 63)
	ib := bu.OpI(ir.OpShlI, idx, 2)
	tbl := bu.Op3(ir.OpAdd, k.base, bu.Set(inOff)) // reuse filled area as the table
	ta := bu.Op3(ir.OpAdd, tbl, ib)
	nh := bu.Load(ta, 0)
	// Low 64 bits disambiguate equal prefixes.
	lo := bu.Op3(ir.OpXor, dst[2], dst[3])
	bu.Op3To(ir.OpXor, nh, nh, lo)
	// Decrement the hop limit and reassemble the header word.
	nhop := bu.OpI(ir.OpSubI, hop, 1)
	hdr := bu.Op3(ir.OpAnd, pln, bu.Set(-0x100)) // clear hop-limit byte
	bu.Op3To(ir.OpOr, hdr, hdr, nhop)
	out := bu.Op3(ir.OpAdd, k.base, bu.Set(outOff+576))
	bu.Store(out, 0, hdr)
	bu.Store(out, 4, nh)
	bu.Store(out, 8, vtc)
	bu.Br("fwd")
	bu.Label("expired")
	dc := bu.Op3(ir.OpAdd, k.base, bu.Set(stateOff+1792))
	old := bu.Load(dc, 0)
	bu.OpITo(ir.OpAddI, old, old, 1)
	bu.Store(dc, 0, old)
	bu.Label("fwd")
	return k.epilogue()
}

// genAESRound: one AES-style round over four state words: a nonlinear
// per-word substitution, row rotations, a column mix where every output
// combines all four rotated words, and a round-key add. The eight
// state/key words are co-live through the mix burst.
func genAESRound(npkts int) *ir.Func {
	k := prologue("aes_round", npkts, 128)
	bu := k.bu
	p := k.pktOff(16, 64)
	var st, rk [4]ir.Reg
	for i := range st {
		st[i] = bu.Load(p, int64(i*4))
	}
	ks := bu.Op3(ir.OpAdd, k.base, bu.Set(stateOff+2048))
	for i := range rk {
		rk[i] = bu.Load(ks, int64(i*4))
	}
	bu.Ctx() // yield between the load burst and the arithmetic burst
	// SubBytes approximation: per-word nonlinear byte smear.
	var sub [4]ir.Reg
	for i, s := range st {
		sq := bu.OpI(ir.OpMulI, s, 0x01010101)
		sh := bu.OpI(ir.OpShrI, s, 4)
		sub[i] = bu.Op3(ir.OpXor, sq, sh)
	}
	// ShiftRows: rotate word i left by 8*i bits.
	var rot [4]ir.Reg
	rot[0] = sub[0]
	for i := 1; i < 4; i++ {
		l := bu.OpI(ir.OpShlI, sub[i], int64(8*i))
		r := bu.OpI(ir.OpShrI, sub[i], int64(32-8*i))
		rot[i] = bu.Op3(ir.OpOr, l, r)
	}
	// MixColumns-ish: each output word mixes all four rotated words,
	// then AddRoundKey folds in the key word.
	var mixed [4]ir.Reg
	for i := range mixed {
		m := bu.Op3(ir.OpXor, rot[i], rot[(i+1)%4])
		d := bu.OpI(ir.OpMulI, rot[(i+2)%4], 2)
		bu.Op3To(ir.OpXor, m, m, d)
		bu.Op3To(ir.OpXor, m, m, rot[(i+3)%4])
		mixed[i] = bu.Op3(ir.OpXor, m, rk[i])
	}
	out := bu.Op3(ir.OpAdd, k.base, bu.Set(outOff+640))
	for i, m := range mixed {
		bu.Store(out, int64(i*4), m)
	}
	return k.epilogue()
}

// genDPIScan: deep-packet-inspection scan: slide byte-shifted windows
// across adjacent payload words and compare each against two masked
// signatures, accumulating a match bitmap — url's comparison fan plus
// cross-word window assembly, with a flow-state update at the end.
func genDPIScan(npkts int) *ir.Func {
	k := prologue("dpi_scan", npkts, 128)
	bu := k.bu
	p := k.pktOff(20, 64)
	sigs := []int64{0x6D616C77, 0x7368656C} // "malw", "shel"
	hits := bu.Set(0)
	prev := bu.Load(p, 0)
	for w := 0; w < 4; w++ {
		cur := bu.Load(p, int64((w+1)*4))
		for s, sig := range sigs {
			sr := bu.Set(sig)
			// Two byte-shifted windows spanning prev..cur.
			for sh := 0; sh < 2; sh++ {
				hi := bu.OpI(ir.OpShlI, prev, int64(8+16*sh))
				lo := bu.OpI(ir.OpShrI, cur, int64(24-16*sh))
				win := bu.Op3(ir.OpOr, hi, lo)
				d := bu.Op3(ir.OpXor, win, sr)
				bu.BNZ(d, dpiLabel(w, s, sh))
				bu.OpITo(ir.OpOrI, hits, hits, 1<<uint(s))
				bu.Label(dpiLabel(w, s, sh))
			}
		}
		prev = cur
	}
	// Per-flow hit accumulator.
	fs := bu.Op3(ir.OpAdd, k.base, bu.Set(stateOff+2304))
	fc := bu.Load(fs, 0)
	bu.Op3To(ir.OpAdd, fc, fc, hits)
	bu.Store(fs, 0, fc)
	out := bu.Op3(ir.OpAdd, k.base, bu.Set(outOff+704))
	bu.Store(out, 0, hits)
	return k.epilogue()
}

func dpiLabel(w, s, sh int) string {
	return "d" + string(rune('a'+w)) + string(rune('0'+s)) + string(rune('0'+sh))
}
