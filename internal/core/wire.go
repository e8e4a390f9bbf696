package core

// The allocation service's wire format (npserve, PR 5). A WireRequest
// describes one thread-set allocation over HTTP/JSON — each thread as
// either masm assembly source or a deterministic progen spec — and a
// WireResponse reports the resulting grants, costs and engine counters.
// The types live here rather than in internal/serve so that clients
// (cmd/nploadgen, tests, external tools) can speak the protocol without
// importing the server.
//
// Canonicalization: CanonicalKey hashes the content keys
// (ir.Func.Key) of the *materialized* thread bodies together with the
// fields that change the allocation result (mode, nreg, nthd).
// Workers, timeout, priority and the dump flag are deliberately
// excluded: the engine's determinism contract makes the allocation
// bit-identical for every worker count, so two requests differing only
// in those fields may safely share one engine invocation.

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"

	"npra/internal/ir"
	"npra/internal/masm"
	"npra/internal/progen"
)

// Wire limits: requests beyond these bounds are rejected with ErrInvalid
// before any engine work. They bound the cost of a single request, not
// the machine model (NReg beyond 1024 registers has no hardware analog).
const (
	WireMaxThreads   = 16
	WireMaxAsmBytes  = 64 << 10
	WireMaxNReg      = 1024
	WireMaxNThd      = 64
	WireMaxTimeoutMS = 600_000
	WireMaxDepth     = 4
	WireMaxBodyLen   = 32
	WireMaxTripCnt   = 8
	WireMaxVars      = 32
	WireMaxWindow    = 4096
	WireMaxStoreBase = 1 << 20
)

// WireProgen is a deterministic generated-program spec: the same spec
// always materializes the same function (progen.FromSeed). Zero-valued
// shape fields take the defaults noted on each; all programs drawn this
// way are structurally halting (counted loops only).
type WireProgen struct {
	Seed int64 `json:"seed"`
	// Shape selects an adversarial generator family ("trampoline",
	// "boundary", "palette", "nearcollision"); empty means the default
	// structured generator. All shapes stay structurally halting.
	Shape      string  `json:"shape,omitempty"`
	MaxDepth   int     `json:"max_depth,omitempty"`    // default 2, 1..4
	MaxBodyLen int     `json:"max_body_len,omitempty"` // default 6, 1..32
	MaxTripCnt int     `json:"max_trip_cnt,omitempty"` // default 4, 1..8
	MaxVars    int     `json:"max_vars,omitempty"`     // default 8, 2..32
	CSBDensity float64 `json:"csb_density,omitempty"`  // default 0.2, 0..1
	// StoreWindow/StoreBase bound the absolute store addresses, so a
	// request can give each thread a disjoint memory window.
	StoreWindow int64 `json:"store_window,omitempty"` // default 64, 4..4096
	StoreBase   int64 `json:"store_base,omitempty"`   // 0..1<<20
}

// config validates the spec and returns the progen configuration with
// defaults applied.
func (p *WireProgen) config() (progen.StructuredConfig, error) {
	cfg := progen.StructuredConfig{
		MaxDepth: 2, MaxBodyLen: 6, MaxTripCnt: 4, MaxVars: 8,
		CSBDensity: 0.2, StoreWindow: 64,
	}
	set := func(dst *int, v, max int, name string) error {
		if v == 0 {
			return nil
		}
		if v < 1 || v > max {
			return invalidf("progen %s = %d out of range [1, %d]", name, v, max)
		}
		*dst = v
		return nil
	}
	if err := set(&cfg.MaxDepth, p.MaxDepth, WireMaxDepth, "max_depth"); err != nil {
		return cfg, err
	}
	if err := set(&cfg.MaxBodyLen, p.MaxBodyLen, WireMaxBodyLen, "max_body_len"); err != nil {
		return cfg, err
	}
	if err := set(&cfg.MaxTripCnt, p.MaxTripCnt, WireMaxTripCnt, "max_trip_cnt"); err != nil {
		return cfg, err
	}
	if p.MaxVars != 0 {
		if p.MaxVars < 2 || p.MaxVars > WireMaxVars {
			return cfg, invalidf("progen max_vars = %d out of range [2, %d]", p.MaxVars, WireMaxVars)
		}
		cfg.MaxVars = p.MaxVars
	}
	if p.CSBDensity != 0 {
		if p.CSBDensity < 0 || p.CSBDensity > 1 {
			return cfg, invalidf("progen csb_density = %v out of range [0, 1]", p.CSBDensity)
		}
		cfg.CSBDensity = p.CSBDensity
	}
	if p.StoreWindow != 0 {
		if p.StoreWindow < 4 || p.StoreWindow > WireMaxWindow {
			return cfg, invalidf("progen store_window = %d out of range [4, %d]", p.StoreWindow, WireMaxWindow)
		}
		cfg.StoreWindow = p.StoreWindow
	}
	if p.StoreBase < 0 || p.StoreBase > WireMaxStoreBase {
		return cfg, invalidf("progen store_base = %d out of range [0, %d]", p.StoreBase, WireMaxStoreBase)
	}
	cfg.StoreBase = p.StoreBase
	if !progen.ValidShape(progen.Shape(p.Shape)) {
		return cfg, invalidf("progen shape %q (want one of %v or empty)", p.Shape, progen.Shapes())
	}
	return cfg, nil
}

// WireThread describes one thread's code: exactly one of Asm (masm
// assembly source) or Progen must be set.
type WireThread struct {
	Name   string      `json:"name,omitempty"`
	Asm    string      `json:"asm,omitempty"`
	Progen *WireProgen `json:"progen,omitempty"`
}

// WireRequest is one allocation request.
type WireRequest struct {
	// Mode selects the allocator: "ara" (the default; one code body per
	// thread) or "sra" (the same body on NThd threads; Threads must then
	// hold exactly one entry).
	Mode string `json:"mode,omitempty"`
	NReg int    `json:"nreg"`
	NThd int    `json:"nthd,omitempty"`

	Threads []WireThread `json:"threads"`

	// Workers and TimeoutMS tune the engine run without changing its
	// result (PR-1 determinism / PR-2 deadline contract); both are
	// excluded from the canonical key.
	Workers   int   `json:"workers,omitempty"`
	TimeoutMS int64 `json:"timeout_ms,omitempty"`

	// Dump asks for the rewritten physical-register assembly of every
	// thread in the response (response-shaping only; not canonical).
	Dump bool `json:"dump,omitempty"`

	// Priority is the admission class the serving layer's load shedder
	// routes on: "low", "normal" (the default when empty) or "high".
	// Under queue pressure low-priority work is refused first, normal
	// next; high is only refused at the hard capacity bound. Excluded
	// from the canonical key — priority shapes admission, never the
	// allocation result.
	Priority string `json:"priority,omitempty"`
}

// Validate checks the request's scalar fields against the wire limits.
// Thread bodies are checked by Funcs, which materializes them.
func (r *WireRequest) Validate() error {
	switch r.Mode {
	case "", "ara", "sra":
	default:
		return invalidf("mode %q (want \"ara\" or \"sra\")", r.Mode)
	}
	if r.NReg < 1 || r.NReg > WireMaxNReg {
		return invalidf("nreg = %d out of range [1, %d]", r.NReg, WireMaxNReg)
	}
	if len(r.Threads) == 0 {
		return invalidf("no threads")
	}
	if len(r.Threads) > WireMaxThreads {
		return invalidf("%d threads exceeds the limit of %d", len(r.Threads), WireMaxThreads)
	}
	if r.Mode == "sra" {
		if len(r.Threads) != 1 {
			return invalidf("sra takes exactly one thread body, got %d", len(r.Threads))
		}
		if r.NThd < 1 || r.NThd > WireMaxNThd {
			return invalidf("sra nthd = %d out of range [1, %d]", r.NThd, WireMaxNThd)
		}
	} else if r.NThd != 0 {
		return invalidf("nthd is only meaningful with mode \"sra\"")
	}
	if r.TimeoutMS < 0 || r.TimeoutMS > WireMaxTimeoutMS {
		return invalidf("timeout_ms = %d out of range [0, %d]", r.TimeoutMS, WireMaxTimeoutMS)
	}
	switch r.Priority {
	case "", "low", "normal", "high":
	default:
		return invalidf("priority %q (want \"low\", \"normal\" or \"high\")", r.Priority)
	}
	if r.Workers < 0 {
		return invalidf("workers = %d negative", r.Workers)
	}
	for i, t := range r.Threads {
		if (t.Asm == "") == (t.Progen == nil) {
			return invalidf("thread %d: exactly one of asm or progen must be set", i)
		}
		if len(t.Asm) > WireMaxAsmBytes {
			return invalidf("thread %d: asm source %d bytes exceeds the limit of %d", i, len(t.Asm), WireMaxAsmBytes)
		}
	}
	return nil
}

// CompiledBodies caches the expensive half of Funcs: assembling masm
// source or generating a progen spec into a built ir.Func. GetOrCompile
// returns the function cached under key, calling build on a miss (build
// errors are returned, never cached). A returned function is shared
// across requests and goroutines, so callers must treat it as immutable
// — which every engine path already does: ir.Func is read-only after
// Build. internal/funccache provides the bounded implementation.
type CompiledBodies interface {
	GetOrCompile(key string, build func() (*ir.Func, error)) (*ir.Func, error)
}

// bodySpec returns the thread's compiled-body cache key and its compile
// closure. The key covers everything build reads: the body kind, the
// effective function name (cached funcs are immutable, so the name must
// be baked in before caching, not patched after) and the full source or
// spec. The closure produces the fully-named function in one step.
func (t *WireThread) bodySpec(i int) (key string, build func() (*ir.Func, error)) {
	if t.Asm != "" {
		key = fmt.Sprintf("asm\x00%s\x00%s", t.Name, t.Asm)
		return key, func() (*ir.Func, error) {
			f, err := masm.Assemble(t.Asm)
			if err != nil {
				return nil, fmt.Errorf("%w: thread %d: %v", ErrInvalid, i, err)
			}
			if t.Name != "" {
				f.Name = t.Name
			}
			return f, nil
		}
	}
	p := t.Progen
	key = fmt.Sprintf("progen\x00%s\x00%s\x00%d|%d|%d|%d|%d|%v|%d|%d",
		t.Name, p.Shape, p.Seed, p.MaxDepth, p.MaxBodyLen, p.MaxTripCnt, p.MaxVars,
		p.CSBDensity, p.StoreWindow, p.StoreBase)
	return key, func() (*ir.Func, error) {
		cfg, err := p.config()
		if err != nil {
			return nil, fmt.Errorf("thread %d: %w", i, err)
		}
		f, err := progen.FromSeedShape(progen.Shape(p.Shape), p.Seed, cfg)
		if err != nil {
			return nil, fmt.Errorf("thread %d: %w: %v", i, ErrInvalid, err)
		}
		if t.Name != "" {
			f.Name = t.Name
		} else {
			f.Name = fmt.Sprintf("progen%d", p.Seed)
		}
		return f, nil
	}
}

// Funcs validates the request and materializes every thread body into a
// built ir.Func (assembling masm source, generating progen specs). All
// errors wrap ErrInvalid: a body that does not assemble is the caller's
// fault, not the engine's.
func (r *WireRequest) Funcs() ([]*ir.Func, error) {
	return r.FuncsCached(nil)
}

// FuncsCached is Funcs through a compiled-body cache: thread bodies
// already materialized for an earlier request come back without
// re-parsing or re-generating. A nil cache compiles everything fresh.
// Either way the returned functions are body-for-body identical — the
// cache key covers the full source/spec and effective name.
func (r *WireRequest) FuncsCached(bodies CompiledBodies) ([]*ir.Func, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	funcs := make([]*ir.Func, len(r.Threads))
	for i := range r.Threads {
		key, build := r.Threads[i].bodySpec(i)
		var f *ir.Func
		var err error
		if bodies == nil {
			f, err = build()
		} else {
			f, err = bodies.GetOrCompile(key, build)
		}
		if err != nil {
			return nil, err
		}
		funcs[i] = f
	}
	return funcs, nil
}

// FuncKey is the per-function canonical hash: ir.Func.Key, a sha256
// over a structural encoding of exactly what ir.Func.Format prints (the
// name, every label, every instruction and every register the function
// touches). Everything the engine derives per function — analysis,
// bounds, the context chain, each (pr,sr) Solve — is a pure function of
// that content and the hardware-independent allocator mode, so FuncKey
// is the invalidation key for function-granular caches
// (internal/funccache): equal keys mean bit-identical per-function
// artifacts. A frozen body (every body a cache hands out) computes its
// key once and keeps it, so repeated lookups cost nothing; no separate
// memo is needed.
func FuncKey(f *ir.Func) string { return f.Key() }

// CanonicalKey hashes the result-determining content of the request:
// mode, register budget, thread count and the per-function keys
// (FuncKey) of the materialized thread bodies, in order. funcs must be
// the slice returned by Funcs for this request. Requests with equal
// keys produce bit-identical allocations (for any Workers value), so a
// serving layer may answer them from one engine invocation. The
// request key is composed from the same per-function hashes the
// function cache is keyed by: the request level dedups whole identical
// requests, the function level reuses bodies across different ones.
func (r *WireRequest) CanonicalKey(funcs []*ir.Func) string {
	h := sha256.New()
	mode := r.Mode
	if mode == "" {
		mode = "ara"
	}
	fmt.Fprintf(h, "%s|%d|%d\n", mode, r.NReg, r.NThd)
	for _, f := range funcs {
		io.WriteString(h, FuncKey(f))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// CanonicalKeyBy is CanonicalKey; key is ignored.
//
// Deprecated: per-function keys come from ir.Func.Key, which frozen
// bodies cache themselves. Use CanonicalKey.
func (r *WireRequest) CanonicalKeyBy(funcs []*ir.Func, key func(*ir.Func) string) string {
	return r.CanonicalKey(funcs)
}

// WireThreadAlloc is one thread's slice of a WireResponse.
type WireThreadAlloc struct {
	Name       string `json:"name"`
	PR         int    `json:"pr"`
	SR         int    `json:"sr"`
	Cost       int    `json:"cost"`
	Moves      int    `json:"moves"` // instructions actually inserted by the rewriter
	LiveRanges int    `json:"live_ranges"`
	PrivBase   int    `json:"priv_base"`
	Asm        string `json:"asm,omitempty"` // rewritten physical-register assembly (Dump only)
}

// WirePhases mirrors intra.PhaseStats for the wire.
type WirePhases struct {
	BuildNS         int64 `json:"build_ns"`
	MergeNS         int64 `json:"merge_ns"`
	RepairNS        int64 `json:"repair_ns"`
	ColorNS         int64 `json:"color_ns"`
	RewriteNS       int64 `json:"rewrite_ns"`
	RewriteCachedNS int64 `json:"rewrite_cached_ns"`
	ChainSteps      int   `json:"chain_steps"`
	Trials          int   `json:"trials"`
}

// WireResponse is the engine-side half of an allocation response (the
// serving layer wraps it with transport-level fields: shared/cached
// flags, batch size, elapsed time).
type WireResponse struct {
	NReg           int               `json:"nreg"`
	SGR            int               `json:"sgr"`
	TotalRegisters int               `json:"total_registers"`
	Threads        []WireThreadAlloc `json:"threads"`

	// Degraded marks a static-partition fallback result (PR-2): still a
	// verified, semantics-preserving allocation, but without the paper's
	// register-sharing win. Cause carries the failure that triggered it.
	Degraded bool   `json:"degraded"`
	Cause    string `json:"cause,omitempty"`

	CacheHits   int        `json:"cache_hits"`
	CacheMisses int        `json:"cache_misses"`
	Phases      WirePhases `json:"phases"`
}

// Wire converts an Allocation into its wire form. With dump set, each
// thread carries its rewritten assembly (ir.Func.Format output, which
// ir.Parse round-trips).
func (al *Allocation) Wire(dump bool) *WireResponse {
	resp := &WireResponse{
		NReg:           al.NReg,
		SGR:            al.SGR,
		TotalRegisters: al.TotalRegisters(),
		Degraded:       al.Degraded,
		CacheHits:      al.SolveCache.Hits,
		CacheMisses:    al.SolveCache.Misses,
		Phases: WirePhases{
			BuildNS:         al.Phases.BuildNS,
			MergeNS:         al.Phases.MergeNS,
			RepairNS:        al.Phases.RepairNS,
			ColorNS:         al.Phases.ColorNS,
			RewriteNS:       al.Phases.RewriteNS,
			RewriteCachedNS: al.Phases.RewriteCachedNS,
			ChainSteps:      al.Phases.ChainSteps,
			Trials:          al.Phases.Trials,
		},
	}
	if al.Cause != nil {
		resp.Cause = al.Cause.Error()
	}
	for _, t := range al.Threads {
		wt := WireThreadAlloc{
			Name:       t.Name,
			PR:         t.PR,
			SR:         t.SR,
			Cost:       t.Cost,
			Moves:      t.Stats.Added(),
			LiveRanges: t.LiveRanges,
			PrivBase:   t.PrivBase,
		}
		if dump {
			wt.Asm = t.F.Format()
		}
		resp.Threads = append(resp.Threads, wt)
	}
	return resp
}

// WireError is the typed error body every non-2xx npserve response
// carries: Kind routes programmatically (the string forms of the error
// taxonomy plus the serving layer's own "overload" and "draining"),
// Error is human-readable detail.
type WireError struct {
	Error string `json:"error"`
	Kind  string `json:"kind"`
}

// ErrorKind maps a taxonomy error onto its wire kind string.
func ErrorKind(err error) string {
	switch {
	case errors.Is(err, ErrInvalid):
		return "invalid"
	case errors.Is(err, ErrInfeasible):
		return "infeasible"
	case errors.Is(err, ErrTimeout):
		return "timeout"
	default:
		return "internal"
	}
}
