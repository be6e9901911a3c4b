package core

import (
	"sync/atomic"

	"kascade/internal/bufpool"
)

// chunkPool recycles the fixed-size payload buffers that flow through the
// relay hot path. It is a bounded free list: get reuses a parked chunk when
// one is available and allocates otherwise; release parks the chunk again
// unless the list is full (the buffer is then dropped to the GC). A bounded
// list keeps steady-state allocations at zero while capping the memory the
// pool can pin.
// poolSlack is how many buffers beyond the window capacity a default pool
// parks: enough for the frames in flight outside the window (the read in
// progress, sink writes, replay references) without growing the footprint
// noticeably.
const poolSlack = 8

type chunkPool struct {
	size  int          // payload capacity of every pooled buffer
	free  chan *chunk  // parked, zero-ref chunks
	drawn atomic.Int64 // buffers taken from the arena so far
}

func newChunkPool(size, capacity int) *chunkPool {
	if capacity < 1 {
		capacity = 1
	}
	return &chunkPool{size: size, free: make(chan *chunk, capacity)}
}

// get returns a chunk with an n-byte payload and a reference count of one.
// Requests larger than the pool's buffer size are served by a one-off
// allocation that bypasses the free list entirely.
func (p *chunkPool) get(n int) *chunk {
	if p == nil || n > p.size {
		c := &chunk{buf: make([]byte, n), n: n}
		c.refs.Store(1)
		return c
	}
	var c *chunk
	select {
	case c = <-p.free:
	default:
		c = &chunk{pool: p, buf: bufpool.Get(p.size)}
		p.drawn.Add(1)
	}
	c.n = n
	c.refs.Store(1)
	return c
}

// drain hands every parked buffer back to the cross-session arena
// (internal/bufpool) — the session is over, its pool is about to die, but
// the next broadcast with the same chunk size should not have to allocate
// (and zero) fresh buffers. Chunks still referenced elsewhere are
// untouched; whatever they park after this point goes to the GC with the
// pool.
func (p *chunkPool) drain() {
	if p == nil {
		return
	}
	for {
		select {
		case c := <-p.free:
			bufpool.Put(c.buf)
		default:
			return
		}
	}
}

// chunk is a reference-counted payload buffer. Ownership rules:
//
//   - whoever holds a reference may read c.bytes(); the backing array is
//     guaranteed not to be recycled until every reference is released.
//   - windowStore.Append takes ownership of the caller's reference; callers
//     that still need the payload afterwards (e.g. to write it to a local
//     sink) must retain before appending.
//   - ChunkAt/TryChunkAt return an extra reference the caller must release.
//
// Only the sole owner of a chunk (refs == 1, not yet shared) may mutate its
// payload or call truncate. A view of a mapped source file (src set) is
// read-only, and only kernel writes may read it (see fileMap).
type chunk struct {
	pool *chunkPool // nil for oversize one-off buffers and views
	src  *fileMap   // a view's mapping, held until the last release
	refs atomic.Int32
	buf  []byte // full backing array
	n    int    // payload length
}

// bytes returns the payload. Valid only while the caller holds a reference.
func (c *chunk) bytes() []byte { return c.buf[:c.n] }

// retain adds a reference and returns c for chaining.
func (c *chunk) retain() *chunk {
	c.refs.Add(1)
	return c
}

// release drops one reference; the last release parks the buffer back in
// its pool (or leaves it to the GC for one-off and overflow chunks), or
// lets a view's mapping go.
func (c *chunk) release() {
	if n := c.refs.Add(-1); n > 0 {
		return
	} else if n < 0 {
		panic("kascade: chunk released more times than retained")
	}
	if c.src != nil {
		c.src.release()
		return
	}
	if c.pool == nil {
		return
	}
	select {
	case c.pool.free <- c:
	default:
		// Free list full: recycle the backing array across sessions
		// instead of dropping it to the GC.
		bufpool.Put(c.buf)
	}
}

// truncate shortens the payload to n bytes (short final read). Only the
// sole owner may call it.
func (c *chunk) truncate(n int) {
	if n < 0 || n > len(c.buf) {
		panic("kascade: chunk truncate out of range")
	}
	c.n = n
}
