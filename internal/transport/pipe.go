package transport

import (
	"io"
	"sync"
	"sync/atomic"
	"time"

	"kascade/internal/bufpool"
)

// defaultPipeBuffer is the per-direction capacity of an in-memory
// connection. It plays the role of the kernel socket buffer: writers block
// once that many bytes are in flight, which is what propagates
// back-pressure through a broadcast pipeline. It is a bound, not a
// reservation: the ring behind it exists only while the direction carries
// bytes (see halfPipe.buf).
const defaultPipeBuffer = 256 << 10

// halfPipe is one direction of an in-memory connection: a ring buffer with
// blocking reads and writes, deadline support, and two failure modes
// (graceful close-of-write and hard reset).
type halfPipe struct {
	mu       sync.Mutex
	canRead  *sync.Cond // signalled when data arrives or state changes
	canWrite *sync.Cond // signalled when space frees or state changes

	// buf is the ring storage, size bytes from bufpool. The first write
	// attaches it — a direction that never carries a byte (most
	// back-channels) never owns one — and dropRing hands it back at the
	// moment no byte can move any more. Recycled rings arrive dirty; reads
	// are bounded by n.
	buf  []byte
	size int // ring capacity: where back-pressure starts
	r, w int // read/write cursors
	n    int // bytes currently buffered

	wClosed bool  // write end closed: drain then EOF
	rClosed bool  // read end closed: writes fail immediately
	hardErr error // reset/kill: both directions fail immediately
	paused  bool  // fault injection: direction stalled, no bytes flow

	readDeadline  time.Time
	writeDeadline time.Time
	readTimer     waitTimer
	writeTimer    waitTimer
}

// waitTimer wakes the waiters of one cond when their deadline passes. The
// timer is created by the first timed wait and re-armed by every later one,
// so a blocked read or write costs a Reset, not an allocation.
type waitTimer struct {
	t       *time.Timer
	waiters int // timed waiters parked on the cond; the last one out stops t
}

func newHalfPipe(size int) *halfPipe {
	if size <= 0 {
		size = defaultPipeBuffer
	}
	h := &halfPipe{size: size}
	h.canRead = sync.NewCond(&h.mu)
	h.canWrite = sync.NewCond(&h.mu)
	return h
}

// waitWithDeadline blocks on cond until broadcast, honouring the deadline:
// it returns a timeout error when the deadline has already expired. The
// caller must hold h.mu and re-check its predicate afterwards. wt is the
// cond's timer; every deadline wait in the fabric's byte path arms it here.
func (h *halfPipe) waitWithDeadline(cond *sync.Cond, wt *waitTimer, deadline time.Time, op string) error {
	if deadline.IsZero() {
		cond.Wait()
		return nil
	}
	d := time.Until(deadline)
	if d <= 0 {
		return &timeoutError{op}
	}
	if wt.t == nil {
		wt.t = time.AfterFunc(d, cond.Broadcast)
	} else {
		wt.t.Reset(d)
	}
	wt.waiters++
	cond.Wait()
	if wt.waiters--; wt.waiters == 0 {
		wt.t.Stop()
	}
	return nil
}

func (h *halfPipe) waitRead() error {
	return h.waitWithDeadline(h.canRead, &h.readTimer, h.readDeadline, "read")
}

func (h *halfPipe) waitWrite() error {
	return h.waitWithDeadline(h.canWrite, &h.writeTimer, h.writeDeadline, "write")
}

func (h *halfPipe) read(p []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for {
		if h.hardErr != nil {
			return 0, h.hardErr
		}
		if h.rClosed {
			return 0, ErrClosed
		}
		if h.paused {
			if err := h.waitRead(); err != nil {
				return 0, err
			}
			continue
		}
		if h.n > 0 {
			n := copy(p, h.contiguousRead())
			h.advanceRead(n)
			h.canWrite.Broadcast()
			return n, nil
		}
		if h.wClosed {
			return 0, io.EOF
		}
		if len(p) == 0 {
			return 0, nil
		}
		if err := h.waitRead(); err != nil {
			return 0, err
		}
	}
}

func (h *halfPipe) write(p []byte) (int, error) {
	bufs := [1][]byte{p}
	n, err := h.writev(bufs[:])
	return int(n), err
}

// writev copies every slice of bufs into the ring under a single lock
// acquisition: the in-memory analogue of a vectored socket write. Like the
// TCP path it consumes bufs as it goes, so a caller interrupted by a
// deadline can resume from the returned byte count.
func (h *halfPipe) writev(bufs [][]byte) (int64, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	var total int64
	for len(bufs) > 0 {
		if len(bufs[0]) == 0 {
			bufs = bufs[1:]
			continue
		}
		if h.hardErr != nil {
			return total, h.hardErr
		}
		if h.wClosed {
			return total, ErrClosed
		}
		if h.rClosed {
			// Peer closed its read side: behave like a TCP RST.
			return total, ErrReset
		}
		if h.paused {
			if err := h.waitWrite(); err != nil {
				return total, err
			}
			continue
		}
		if h.buf == nil {
			h.buf = bufpool.Get(h.size)
		}
		if h.n < len(h.buf) {
			n := copy(h.contiguousWrite(), bufs[0])
			h.advanceWrite(n)
			bufs[0] = bufs[0][n:]
			total += int64(n)
			h.canRead.Broadcast()
			continue
		}
		if err := h.waitWrite(); err != nil {
			return total, err
		}
	}
	return total, nil
}

// contiguousRead returns the largest readable span without wrapping.
func (h *halfPipe) contiguousRead() []byte {
	if h.r+h.n <= len(h.buf) {
		return h.buf[h.r : h.r+h.n]
	}
	return h.buf[h.r:]
}

// contiguousWrite returns the largest writable span without wrapping.
func (h *halfPipe) contiguousWrite() []byte {
	space := len(h.buf) - h.n
	if h.w+space <= len(h.buf) {
		return h.buf[h.w : h.w+space]
	}
	return h.buf[h.w:]
}

func (h *halfPipe) advanceRead(n int) {
	h.r = (h.r + n) % len(h.buf)
	h.n -= n
}

func (h *halfPipe) advanceWrite(n int) {
	h.w = (h.w + n) % len(h.buf)
	h.n += n
}

// closeWrite marks the writer side done: the reader drains buffered bytes
// and then sees EOF (graceful FIN).
func (h *halfPipe) closeWrite() {
	h.mu.Lock()
	h.wClosed = true
	h.mu.Unlock()
	h.canRead.Broadcast()
	h.canWrite.Broadcast()
}

// dropRing returns the ring to the pool. The caller holds h.mu and has just
// put the direction in a state where reads and writes fail before they
// look at the ring, so whatever it still buffers is unreachable.
func (h *halfPipe) dropRing() {
	if h.buf != nil {
		bufpool.Put(h.buf)
		h.buf, h.r, h.w, h.n = nil, 0, 0, 0
	}
}

// closeRead marks the reader side done: subsequent peer writes fail.
func (h *halfPipe) closeRead() {
	h.mu.Lock()
	h.rClosed = true
	h.dropRing()
	h.mu.Unlock()
	h.canRead.Broadcast()
	h.canWrite.Broadcast()
}

// setPaused stalls or resumes the direction: while paused no byte moves in
// either role (writers block without buffering, readers block even on
// buffered data), but deadlines still fire — exactly how a black-holed TCP
// direction behaves before the retransmission timer gives up.
func (h *halfPipe) setPaused(v bool) {
	h.mu.Lock()
	h.paused = v
	h.mu.Unlock()
	h.canRead.Broadcast()
	h.canWrite.Broadcast()
}

// breakWith poisons both directions with err (connection reset / host kill).
func (h *halfPipe) breakWith(err error) {
	h.mu.Lock()
	if h.hardErr == nil {
		h.hardErr = err
	}
	h.dropRing()
	h.mu.Unlock()
	h.canRead.Broadcast()
	h.canWrite.Broadcast()
}

func (h *halfPipe) setReadDeadline(t time.Time) {
	h.mu.Lock()
	h.readDeadline = t
	h.mu.Unlock()
	h.canRead.Broadcast()
}

func (h *halfPipe) setWriteDeadline(t time.Time) {
	h.mu.Lock()
	h.writeDeadline = t
	h.mu.Unlock()
	h.canWrite.Broadcast()
}

// pipeConn is one endpoint of an in-memory connection: it reads from rx and
// writes to tx. Two pipeConns sharing swapped halves form a full-duplex link.
type pipeConn struct {
	rx, tx    *halfPipe
	local     string
	remote    string
	closeOnce sync.Once
	onClose   func()
	// writeShape is the optional egress shaping (latency/rate). It is an
	// atomic pointer so the fabric can swap profiles on a live connection
	// (the rate-collapse fault) while writes are in flight.
	writeShape atomic.Pointer[shaper]
}

func newPipePair(a, b string, bufSize int) (*pipeConn, *pipeConn) {
	ab := newHalfPipe(bufSize) // a -> b
	ba := newHalfPipe(bufSize) // b -> a
	ca := &pipeConn{rx: ba, tx: ab, local: a, remote: b}
	cb := &pipeConn{rx: ab, tx: ba, local: b, remote: a}
	return ca, cb
}

func (c *pipeConn) Read(p []byte) (int, error) {
	return c.rx.read(p)
}

func (c *pipeConn) Write(p []byte) (int, error) {
	if s := c.writeShape.Load(); s != nil {
		return s.write(c.tx, p)
	}
	return c.tx.write(p)
}

// WriteBuffers implements transport.BuffersWriter. Unshaped links take the
// single-lock writev fast path; shaped links hand each slice to the shaper
// so pacing and first-byte latency stay byte-accurate.
func (c *pipeConn) WriteBuffers(bufs [][]byte) (int64, error) {
	if s := c.writeShape.Load(); s != nil {
		var total int64
		for i := range bufs {
			n, err := s.write(c.tx, bufs[i])
			bufs[i] = bufs[i][n:]
			total += int64(n)
			if err != nil {
				return total, err
			}
			bufs[i] = nil
		}
		return total, nil
	}
	return c.tx.writev(bufs)
}

func (c *pipeConn) Close() error {
	c.closeOnce.Do(func() {
		c.tx.closeWrite()
		c.rx.closeRead()
		if c.onClose != nil {
			c.onClose()
		}
	})
	return nil
}

// breakConn hard-kills both directions, as seen from both endpoints.
func (c *pipeConn) breakConn(err error) {
	c.rx.breakWith(err)
	c.tx.breakWith(err)
}

func (c *pipeConn) SetDeadline(t time.Time) error {
	c.rx.setReadDeadline(t)
	c.tx.setWriteDeadline(t)
	return nil
}

func (c *pipeConn) SetReadDeadline(t time.Time) error {
	c.rx.setReadDeadline(t)
	return nil
}

func (c *pipeConn) SetWriteDeadline(t time.Time) error {
	c.tx.setWriteDeadline(t)
	return nil
}

func (c *pipeConn) LocalAddr() string  { return c.local }
func (c *pipeConn) RemoteAddr() string { return c.remote }
