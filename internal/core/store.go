package core

import (
	"errors"
	"fmt"
	"io"
	"sync"
)

// Errors surfaced by chunk stores.
var (
	// ErrQuit is returned by ChunkAt after a user-initiated abort: the
	// pipeline still closes its ring (QUIT then REPORT), per §III-C.
	ErrQuit = errors.New("kascade: transfer aborted by user")
	// ErrAbandoned is returned after an unrecoverable data loss (FORGET
	// from a streamed source): the node gives up entirely, per §III-D2.
	ErrAbandoned = errors.New("kascade: transfer abandoned, data irrecoverably lost")
	// ErrExcluded is returned after the predecessor excluded this node
	// for sustained low throughput (the paper's §V extension). The node
	// steps aside without cascading a QUIT: its former successor is
	// adopted by the excluding predecessor.
	ErrExcluded = errors.New("kascade: node excluded for low throughput")
)

// ForgetError is returned by ChunkAt when the requested offset fell out of
// the retained window; Base is the smallest offset still available. The
// sender side answers the pending GET/PGET with FORGET(Base).
type ForgetError struct{ Base uint64 }

func (e *ForgetError) Error() string {
	return fmt.Sprintf("kascade: data before offset %d is no longer buffered", e.Base)
}

// errNotReady is PollChunkAt's "nothing buffered at this offset yet, and no
// terminal condition either" answer — the scheduler arms the store notify
// and parks the session instead of blocking a goroutine in ChunkAt.
var errNotReady = errors.New("kascade: chunk not buffered yet")

// errRecycled poisons a store whose session ended and returned its buffers
// to the cross-session arena; stragglers (an in-flight PGET server) see it
// instead of reading recycled memory.
var errRecycled = errors.New("kascade: session over, store recycled")

// store is the node-local view of the stream being broadcast: the
// downstream sender reads sequential chunks from it, and the fetch server
// (at node 1) answers PGET range requests from it.
//
// Chunks move through a store by reference, never by copy: ChunkAt and
// TryChunkAt return ref-counted views the caller must release once the
// payload has been written out, and windowStore.Append takes ownership of
// the caller's reference.
type store interface {
	// ChunkAt returns a retained reference to the chunk starting at byte
	// offset off, blocking until it is available. The caller must release
	// it. It returns io.EOF once off reaches the end of a finished stream,
	// a *ForgetError if off is below the retained window,
	// ErrQuit/ErrAbandoned after an abort, or the abort cause.
	ChunkAt(off uint64) (*chunk, error)
	// TryChunkAt is the non-blocking variant used to coalesce vectored
	// writes: it returns a retained reference if the chunk is immediately
	// available and (nil, false) otherwise — including every condition
	// (EOF, FORGET, abort) that ChunkAt reports as an error, which the
	// caller discovers on its next blocking ChunkAt.
	TryChunkAt(off uint64) (*chunk, bool)
	// PollChunkAt is the scheduler-facing variant: never blocking, it
	// returns errNotReady while the chunk is simply not buffered yet and
	// otherwise exactly what ChunkAt would (the chunk, io.EOF, a
	// *ForgetError, or the abort cause) — so an engine worker can claim a
	// forwardable batch, or learn the terminal condition, without parking
	// a goroutine per session.
	PollChunkAt(off uint64) (*chunk, error)
	// SetNotify installs the store's readiness hook: an edge-triggered
	// callback fired (at most once per ArmNotify) when the armed offset
	// becomes readable or a terminal condition arrives. Nil clears it.
	SetNotify(fn func())
	// ArmNotify arms a one-shot notification for off: fire once `want`
	// bytes from off are buffered (the store clamps want to what its
	// capacity can ever hold, so the threshold is always crossable), or
	// immediately on any terminal condition. It reports whether the
	// notify was armed: false means ChunkAt(off) would already return
	// without blocking, so the caller should poll again instead of
	// waiting.
	ArmNotify(off uint64, want int) bool
	// SetLowWater tells the store that bytes below off are safely at the
	// successor, making the chunks below off eligible for eviction.
	SetLowWater(off uint64)
	// ResetLowWater rebases the consumption mark when a *new* successor
	// takes over at an older offset, protecting its unread chunks from
	// eviction.
	ResetLowWater(off uint64)
	// ReleaseAll lifts back-pressure entirely (the node became the
	// pipeline tail and has no successor to replay for).
	ReleaseAll()
	// Head returns the exclusive upper bound of available data.
	Head() uint64
	// End returns the total stream length, if known yet.
	End() (uint64, bool)
	// Abort poisons the store: blocked and future calls return cause.
	Abort(cause error)
	// AbortCause returns the abort cause, or nil.
	AbortCause() error
}

// windowStore is the relay-side (and streamed-source-side) store: a
// fixed-capacity ring of the most recent chunks. Appending blocks once the
// ring is full and the successor has not consumed the oldest chunk yet —
// this is the engine's back-pressure, equivalent to TCP's when the paper's
// Ruby implementation stops reading. Keeping a window (rather than only the
// newest chunk) is what lets a node replay data to a recovering successor
// (§III-D2).
//
// Ownership: Append takes the caller's reference without copying the
// payload; eviction is O(1) (release the oldest slot, advance the ring
// start). ChunkAt hands out an extra reference, so a slow replay to a
// recovering successor keeps its payload alive even if the slot is evicted
// and the window moves on underneath it.
type windowStore struct {
	mu   sync.Mutex
	cond *sync.Cond
	// waiters counts goroutines parked in cond.Wait: wakeups are skipped
	// when it is zero, and Append reports it so ingest can hand its
	// processor to a lone parked forwarder (see Node.ingest).
	waiters int

	chunkSize int
	pool      *chunkPool

	ring  []*chunk // fixed-capacity slot array
	start int      // index of the oldest occupied slot
	count int      // occupied slots

	base     uint64 // offset of the oldest retained chunk
	head     uint64 // next append offset (== total bytes received)
	lowWater uint64 // bytes below this are consumed downstream
	released bool   // no successor: evict freely, never block appends

	ended bool
	end   uint64
	abort error

	// The edge-triggered readiness hook of the scheduled forwarding path:
	// armed at one offset, fired at most once when that offset becomes
	// readable (or a terminal condition arrives), then disarmed. This is
	// what batches wakeups — the engine scheduler is notified once per
	// drain cycle instead of the downstream goroutine waking per chunk.
	notify   func()
	notifyAt uint64
	armed    bool
}

func newWindowStore(chunkSize, windowChunks int, pool *chunkPool) *windowStore {
	if pool == nil {
		pool = newChunkPool(chunkSize, windowChunks+poolSlack)
	}
	s := &windowStore{
		chunkSize: chunkSize,
		pool:      pool,
		ring:      make([]*chunk, windowChunks),
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// slot returns the ring position of logical chunk index i (0 = oldest).
func (s *windowStore) slot(i int) int { return (s.start + i) % len(s.ring) }

// waitLocked parks the caller on the store condition, tracking the waiter
// count so state changes with nobody parked skip the wakeup entirely.
func (s *windowStore) waitLocked() {
	s.waiters++
	s.cond.Wait()
	s.waiters--
}

// wakeLocked wakes parked waiters, if any. Caller holds s.mu.
func (s *windowStore) wakeLocked() {
	if s.waiters > 0 {
		s.cond.Broadcast()
	}
}

// readyLocked reports whether a notify armed at off should fire: data
// buffered through off, or a terminal condition (abort, FORGET, EOF).
// Caller holds s.mu.
func (s *windowStore) readyLocked(off uint64) bool {
	return s.abort != nil || off < s.base || off < s.head || s.ended
}

// maybeNotifyLocked fires the armed readiness hook if its offset became
// readable (or terminal). The hook runs while holding s.mu — it must only
// flip scheduler state (the lock order is store.mu → scheduler.mu, never
// the reverse). Caller holds s.mu.
func (s *windowStore) maybeNotifyLocked() {
	if s.armed && s.readyLocked(s.notifyAt) {
		s.armed = false
		if s.notify != nil {
			s.notify()
		}
	}
}

// evictLocked drops the oldest chunk. Caller holds s.mu.
func (s *windowStore) evictLocked() {
	c := s.ring[s.start]
	s.ring[s.start] = nil
	s.base += uint64(len(c.bytes()))
	s.start = (s.start + 1) % len(s.ring)
	s.count--
	c.release()
}

// Append adds the next chunk (all chunks are ChunkSize long except the
// final one), taking ownership of the caller's reference — the payload is
// not copied. It blocks while the ring is full of unconsumed data; on a
// released store (pipeline tail) the oldest chunk is dropped instead, so
// the tail's memory stays bounded by the window.
//
// It returns how many consumers were parked in ChunkAt when the chunk
// landed, all of them woken by it. A store has one appender, so every
// other parked goroutine is a ChunkAt consumer.
func (s *windowStore) Append(c *chunk) (woken int, err error) {
	if len(c.bytes()) == 0 {
		c.release()
		return 0, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.abort != nil {
			c.release()
			return 0, s.abort
		}
		if s.ended {
			c.release()
			return 0, fmt.Errorf("kascade: append after end of stream")
		}
		if s.count < len(s.ring) {
			break
		}
		// Make room by evicting front chunks already consumed by the
		// successor. Unconsumed chunks are never dropped — the appender
		// waits instead, which is the pipeline's back-pressure — except
		// on a released store, which has nobody left to replay for.
		for s.count == len(s.ring) {
			oldest := s.ring[s.start]
			if !s.released && s.base+uint64(len(oldest.bytes())) > s.lowWater {
				break
			}
			s.evictLocked()
		}
		if s.count < len(s.ring) {
			break
		}
		s.waitLocked()
	}
	s.ring[s.slot(s.count)] = c
	s.count++
	s.head += uint64(len(c.bytes()))
	woken = s.waiters
	s.wakeLocked()
	s.maybeNotifyLocked()
	return woken, nil
}

// AppendVirtual advances the head past size bytes that were relayed through
// the kernel (spliced) and are therefore NOT retained: base moves with head,
// so the window over this span is empty and a successor asking for any of it
// gets FORGET — which its recovery resolves against node 0's file store.
// The armed readiness notify is deliberately NOT fired: the spliced span is
// consumed by construction (the splice wrote it to the successor), so there
// is no chunk for a scheduler worker to claim, and waking one would only
// produce a phantom FORGET turn.
func (s *windowStore) AppendVirtual(size uint64) error {
	if size == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.abort != nil {
		return s.abort
	}
	if s.ended {
		return fmt.Errorf("kascade: append after end of stream")
	}
	// Splice only engages with the successor fully caught up, so every
	// retained chunk is already consumed: release them before rebasing.
	for s.count > 0 {
		s.evictLocked()
	}
	s.head += size
	s.base = s.head
	if s.lowWater < s.head {
		s.lowWater = s.head
	}
	s.wakeLocked()
	return nil
}

// AppendBytes copies b into a pooled chunk and appends it. Convenience for
// callers (and tests) that do not manage chunk references themselves.
func (s *windowStore) AppendBytes(b []byte) error {
	c := s.pool.get(len(b))
	copy(c.bytes(), b)
	_, err := s.Append(c)
	return err
}

// Finish marks the end of the stream at offset total.
func (s *windowStore) Finish(total uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		s.ended = true
		s.end = total
	}
	s.wakeLocked()
	s.maybeNotifyLocked()
}

func (s *windowStore) ChunkAt(off uint64) (*chunk, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.abort != nil {
			return nil, s.abort
		}
		if off < s.base {
			return nil, &ForgetError{Base: s.base}
		}
		if off < s.head {
			return s.chunkAtLocked(off)
		}
		if s.ended {
			return nil, io.EOF
		}
		s.waitLocked()
	}
}

func (s *windowStore) PollChunkAt(off uint64) (*chunk, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.abort != nil:
		return nil, s.abort
	case off < s.base:
		return nil, &ForgetError{Base: s.base}
	case off < s.head:
		return s.chunkAtLocked(off)
	case s.ended:
		return nil, io.EOF
	default:
		return nil, errNotReady
	}
}

func (s *windowStore) SetNotify(fn func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.notify = fn
	if fn == nil {
		s.armed = false
	}
}

func (s *windowStore) ArmNotify(off uint64, want int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Clamp the batching threshold to half the window: back-pressure
	// parks the producer only once the ring is full, so a threshold at or
	// below half of it is always crossable and the notify can never
	// deadlock against a producer waiting for this consumer.
	if max := len(s.ring) / 2 * s.chunkSize; want > max {
		want = max
	}
	if want < 1 {
		want = 1
	}
	at := off + uint64(want) - 1
	if s.abort != nil || s.ended || off < s.base || s.head > at {
		// Terminal condition, or the threshold is already crossed:
		// claim now. (Data short of the threshold arms anyway — Append
		// fires the hook once the backlog builds, and EOF/abort fire it
		// immediately, so delivery is only deferred while the producer
		// is actively streaming.)
		return false
	}
	s.notifyAt = at
	s.armed = true
	return true
}

func (s *windowStore) TryChunkAt(off uint64) (*chunk, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.abort != nil || off < s.base || off >= s.head {
		return nil, false
	}
	c, err := s.chunkAtLocked(off)
	if err != nil {
		return nil, false
	}
	return c, true
}

// chunkAtLocked locates the chunk containing off and returns a retained
// reference. Offsets are always chunk-aligned by construction (GET/PGET
// offsets advance by whole chunks).
func (s *windowStore) chunkAtLocked(off uint64) (*chunk, error) {
	idx := int((off - s.base) / uint64(s.chunkSize))
	if idx < 0 || idx >= s.count {
		return nil, fmt.Errorf("kascade: internal: offset %d maps to chunk %d of %d", off, idx, s.count)
	}
	chunkStart := s.base + uint64(idx)*uint64(s.chunkSize)
	if chunkStart != off {
		return nil, fmt.Errorf("kascade: unaligned offset %d (chunk starts at %d)", off, chunkStart)
	}
	return s.ring[s.slot(idx)].retain(), nil
}

func (s *windowStore) SetLowWater(off uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if off > s.lowWater {
		s.lowWater = off
		s.wakeLocked()
	}
}

func (s *windowStore) ResetLowWater(off uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lowWater = off
	s.wakeLocked()
}

func (s *windowStore) ReleaseAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.released = true
	s.wakeLocked()
}

func (s *windowStore) Head() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.head
}

func (s *windowStore) End() (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.end, s.ended
}

func (s *windowStore) Abort(cause error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.abort == nil {
		s.abort = cause
	}
	s.wakeLocked()
	s.maybeNotifyLocked()
}

func (s *windowStore) AbortCause() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.abort
}

// recycle ends the store's life: it is poisoned (unless already terminal)
// so late readers get a clean error, and every ring slot's reference is
// released — parking the buffers in the pool, whose drain hands them to
// the cross-session arena.
func (s *windowStore) recycle() {
	s.mu.Lock()
	if s.abort == nil {
		s.abort = errRecycled
	}
	for s.count > 0 {
		s.evictLocked()
	}
	s.wakeLocked()
	s.mu.Unlock()
}

// rebase positions an empty window at off (chunk-aligned): a late
// joiner's live stream starts at its catch-up boundary, not at zero.
// Must run before the first Append.
func (s *windowStore) rebase(off uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.base = off
	s.head = off
	if s.lowWater < off {
		s.lowWater = off
	}
}

// Base returns the smallest retained offset (for tests and diagnostics).
func (s *windowStore) Base() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.base
}

// fileStore is the random-access source store used when the input is a
// file (io.ReaderAt): any offset can be served at any time, so recovering
// successors never hit FORGET at node 1 — exactly the distinction §III-D2
// draws between file-backed and streamed sources. Served chunks come from
// the shared pool; the caller's release after the network write returns
// the buffer for reuse.
type fileStore struct {
	ra        io.ReaderAt
	size      uint64
	chunkSize int
	pool      *chunkPool

	mu    sync.Mutex
	abort error
}

func newFileStore(ra io.ReaderAt, size int64, chunkSize int, pool *chunkPool) *fileStore {
	if pool == nil {
		pool = newChunkPool(chunkSize, poolSlack)
	}
	return &fileStore{ra: ra, size: uint64(size), chunkSize: chunkSize, pool: pool}
}

func (s *fileStore) ChunkAt(off uint64) (*chunk, error) {
	if err := s.AbortCause(); err != nil {
		return nil, err
	}
	if off >= s.size {
		return nil, io.EOF
	}
	n := uint64(s.chunkSize)
	if off+n > s.size {
		n = s.size - off
	}
	c := s.pool.get(int(n))
	// A reader may legally return io.EOF alongside a full tail read.
	if nr, err := s.ra.ReadAt(c.bytes(), int64(off)); err != nil && !(err == io.EOF && nr == int(n)) {
		c.release()
		return nil, fmt.Errorf("kascade: reading source file at %d: %w", off, err)
	}
	return c, nil
}

func (s *fileStore) TryChunkAt(off uint64) (*chunk, bool) {
	c, err := s.ChunkAt(off)
	if err != nil {
		return nil, false
	}
	return c, true
}

// PollChunkAt never answers errNotReady: a random-access source can serve
// any offset (or its terminal condition) immediately.
func (s *fileStore) PollChunkAt(off uint64) (*chunk, error) { return s.ChunkAt(off) }

// SetNotify is a no-op: a file store is always ready, nothing to wait for.
func (s *fileStore) SetNotify(func()) {}

// ArmNotify always reports "ready now": the caller should poll, not wait.
func (s *fileStore) ArmNotify(uint64, int) bool { return false }

func (s *fileStore) SetLowWater(uint64)   {}
func (s *fileStore) ResetLowWater(uint64) {}
func (s *fileStore) ReleaseAll()          {}
func (s *fileStore) Head() uint64         { return s.size }
func (s *fileStore) End() (uint64, bool) {
	return s.size, true
}

func (s *fileStore) Abort(cause error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.abort == nil {
		s.abort = cause
	}
}

func (s *fileStore) AbortCause() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.abort
}
