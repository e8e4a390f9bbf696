package ir

// Arena is a bump allocator for IR construction. A builder that emits
// many small Blocks and Instr slices (the rewriter emits one slice per
// block plus trampolines) allocates them out of a handful of large
// chunks instead of one heap object each; dropping the Arena (and
// everything built from it) releases the chunks wholesale, so a
// request-scoped construction costs the garbage collector a few slabs
// rather than thousands of nodes.
//
// An Arena never reuses memory: chunks are append-only and handed-out
// slices stay valid for the life of the objects built from them. It is
// not safe for concurrent use; each request (or engine invocation)
// owns its own.
//
// Cached bodies must NOT be arena-backed — a cache entry would pin its
// whole request's slab. The rewrite path only routes through an Arena
// when no rewrite cache is configured.
type Arena struct {
	instrs []Instr // current instruction chunk; len = bump watermark
	blocks []Block // current block chunk; len = bump watermark
}

const (
	arenaInstrChunk = 2048
	arenaBlockChunk = 128
)

// InstrSlice returns a zero-length instruction slice with the given
// capacity, carved from the current chunk. Appending past the capacity
// falls back to the ordinary heap via append's reallocation, so an
// under-estimated capacity degrades gracefully instead of corrupting a
// neighbor.
func (a *Arena) InstrSlice(capacity int) []Instr {
	if capacity > cap(a.instrs)-len(a.instrs) {
		n := arenaInstrChunk
		if capacity > n {
			n = capacity
		}
		a.instrs = make([]Instr, 0, n)
	}
	l := len(a.instrs)
	a.instrs = a.instrs[:l+capacity]
	return a.instrs[l : l : l+capacity]
}

// Block returns a zeroed *Block carved from the current chunk. Earlier
// pointers stay valid: when a chunk fills, a fresh one is started and
// the old chunk stays pinned by the pointers already handed out.
func (a *Arena) Block() *Block {
	if len(a.blocks) == cap(a.blocks) {
		a.blocks = make([]Block, 0, arenaBlockChunk)
	}
	a.blocks = a.blocks[:len(a.blocks)+1]
	return &a.blocks[len(a.blocks)-1]
}
