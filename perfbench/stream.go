package main

import (
	"encoding/json"
	"fmt"
	"strconv"
	"sync"

	"npra/internal/bench"
	"npra/internal/core"
)

// heavyProgen is the shape of every generated kernel in both serving
// workloads: deep nesting, long bodies and many variables, so engine
// work outweighs transport.
func heavyProgen(seed int64) *core.WireProgen {
	return &core.WireProgen{Seed: seed, MaxDepth: 4, MaxBodyLen: 24, MaxTripCnt: 8, MaxVars: 24, CSBDensity: 0.3}
}

const (
	// mixPool is the number of generated kernels in the mix-warm pool;
	// the three asm service kernels join them.
	mixPool = 24
	// mixPoolSeed fixes the pool, as the asm kernels are fixed: the run's
	// seed picks the request stream over it. A pool drawn from the run's
	// seed moved the workload's cost by ±15% between seeds.
	mixPoolSeed = 1
	// mixNReg is the mix-warm budget: the IXP1200 file, above the
	// move-free demand of any 1–4 pool kernels.
	mixNReg = 128
	// mixWarmRequests is the untimed warm-up after one request per kernel.
	mixWarmRequests = 200

	// A pressure-cold request of n threads gets pressurePerThread*n +
	// pressureSlack registers: below the move-free demand of about one
	// request in twelve, so the greedy reduction runs, and above the
	// splitting lower bound of every request. Resampling 12000 heavy
	// bodies into 2M requests found none over this budget; 24n+2 fails
	// about one request in 2000.
	pressurePerThread = 24
	pressureSlack     = 7
	// pressureWarmRequests only warms connections and the server's
	// goroutines; its bodies are as unique as the timed ones.
	pressureWarmRequests = 20
)

// serviceKernels are real structured network code in the mix pool.
var serviceKernels = []string{"ipv6_fwd", "aes_round", "dpi_scan"}

// reqSpec is one generated allocation request.
type reqSpec struct {
	nreg    int
	threads []core.WireThread
	frags   [][]byte // each thread's JSON
	ids     []string // each thread body's identity
}

// stream is a workload's seeded request sequence. Element i ≥ 0 is
// timed; elements -warm..-1 are the untimed warm-up. Elements are pure
// functions of (seed, i).
type stream struct {
	workload string
	seed     int64
	warm     int64

	pool      []core.WireThread // mix-warm only
	poolFrags [][]byte

	mu      sync.Mutex
	seen    map[string]bool
	timed   int64 // timed elements generated
	allSeen int64 // timed elements whose bodies all appeared before
	reused  int64 // timed bodies that appeared before
}

func newStream(workload string, seed int64) (*stream, error) {
	st := &stream{workload: workload, seed: seed, seen: map[string]bool{}}
	switch workload {
	case "mix-warm":
		r := newRNG(mixPoolSeed, 1<<40)
		for k := 0; k < mixPool; k++ {
			st.pool = append(st.pool, core.WireThread{Progen: heavyProgen(int64(r.next() >> 2))})
		}
		for _, n := range serviceKernels {
			b, err := bench.Get(n)
			if err != nil {
				return nil, err
			}
			st.pool = append(st.pool, core.WireThread{Name: n, Asm: b.Gen(8).Format()})
		}
		for _, t := range st.pool {
			blob, err := json.Marshal(t)
			if err != nil {
				return nil, err
			}
			st.poolFrags = append(st.poolFrags, blob)
		}
		st.warm = int64(len(st.pool) + mixWarmRequests)
	case "pressure-cold":
		st.warm = pressureWarmRequests
	default:
		return nil, fmt.Errorf("no stream for workload %q", workload)
	}
	return st, nil
}

// spec generates element i.
func (st *stream) spec(i int64) reqSpec {
	r := newRNG(st.seed, uint64(i))
	var s reqSpec
	switch st.workload {
	case "mix-warm":
		s.nreg = mixNReg
		var picks []int
		if k := i + st.warm; i < 0 && k < int64(len(st.pool)) {
			picks = []int{int(k)} // warm-up: every kernel once, alone
		} else {
			for n := 1 + r.intn(4); n > 0; n-- {
				picks = append(picks, r.intn(len(st.pool)))
			}
		}
		for _, k := range picks {
			s.threads = append(s.threads, st.pool[k])
			s.frags = append(s.frags, st.poolFrags[k])
			s.ids = append(s.ids, "pool"+strconv.Itoa(k))
		}
	case "pressure-cold":
		n := 2 + r.intn(3)
		s.nreg = n*pressurePerThread + pressureSlack
		for t := 0; t < n; t++ {
			th := core.WireThread{Progen: heavyProgen(int64(r.next() >> 2))}
			blob, _ := json.Marshal(th) // a struct of plain fields always encodes
			s.threads = append(s.threads, th)
			s.frags = append(s.frags, blob)
			s.ids = append(s.ids, strconv.FormatInt(th.Progen.Seed, 10))
		}
	}
	return s
}

// body is element i as the JSON request npserve receives, recording the
// input properties the preconditions check.
func (st *stream) body(i int64, dump bool) []byte {
	s := st.spec(i)
	if !dump {
		st.track(i, s.ids)
	}
	return encode(s, dump)
}

func encode(s reqSpec, dump bool) []byte {
	b := make([]byte, 0, 64+len(s.frags)*256)
	b = append(b, `{"nreg":`...)
	b = strconv.AppendInt(b, int64(s.nreg), 10)
	b = append(b, `,"threads":[`...)
	for k, f := range s.frags {
		if k > 0 {
			b = append(b, ',')
		}
		b = append(b, f...)
	}
	b = append(b, ']')
	if dump {
		b = append(b, `,"dump":true`...)
	}
	return append(b, '}')
}

// track records which bodies element i carries.
func (st *stream) track(i int64, ids []string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	all := true
	for _, id := range ids {
		if st.seen[id] {
			if i >= 0 {
				st.reused++
			}
		} else {
			all = false
			st.seen[id] = true
		}
	}
	if i >= 0 {
		st.timed++
		if all {
			st.allSeen++
		}
	}
}

// wire is element i as a request value.
func (st *stream) wire(i int64) *core.WireRequest {
	s := st.spec(i)
	return &core.WireRequest{NReg: s.nreg, Threads: s.threads}
}
