// Package transport defines the byte-stream network abstraction shared by
// every broadcast implementation in this repository.
//
// The Kascade protocol engine (internal/core) and the baseline engines the
// paper compares it against are written against the Network/Listener/Conn
// interfaces below, never against package net directly. Two backends are
// provided:
//
//   - TCP (tcp.go): thin wrappers over the standard library's net package,
//     used by the CLI, the examples, and the loopback integration tests.
//   - Fabric (memnet.go): an in-memory network with named hosts, buffered
//     full-duplex pipes, deadline support, per-link latency/rate shaping,
//     and fault injection (node kill, connection reset). The protocol test
//     suite runs on the fabric so failures can be scripted precisely.
//
// Addresses are plain strings of the form "host:port". The fabric resolves
// them in its own namespace; the TCP backend passes them to net.Dial.
package transport

import (
	"errors"
	"io"
	"time"
)

// Conn is a reliable, ordered, full-duplex byte stream between two nodes.
// It is a subset of net.Conn with string addresses, so both real TCP
// connections and in-memory pipes satisfy it.
type Conn interface {
	io.Reader
	io.Writer
	io.Closer

	// SetDeadline sets both the read and the write deadline.
	SetDeadline(t time.Time) error
	// SetReadDeadline sets the deadline for future Read calls. A zero
	// value means Reads will not time out.
	SetReadDeadline(t time.Time) error
	// SetWriteDeadline sets the deadline for future Write calls.
	SetWriteDeadline(t time.Time) error

	// LocalAddr and RemoteAddr report the endpoints as "host:port".
	LocalAddr() string
	RemoteAddr() string
}

// BuffersWriter is an optional Conn capability: WriteBuffers writes every
// byte of every slice in order, as one vectored operation when the backend
// supports it (writev on TCP). Callers discover it by type assertion, or
// simply call the package-level WriteBuffers which probes and falls back.
//
// Contract (matching net.Buffers): implementations consume written bytes
// from bufs in place — a fully written entry is set to nil or zero length,
// a partially written head entry is trimmed past the written prefix. After
// a partial result (write deadline mid-batch), the caller resumes by
// calling again with the same slice. Callers that need bufs intact must
// pass a copy; the payload bytes themselves are never modified.
type BuffersWriter interface {
	WriteBuffers(bufs [][]byte) (int64, error)
}

// WriteBuffers writes all slices in bufs to w, using the vectored path when
// w implements BuffersWriter and falling back to sequential writes
// otherwise. Both paths honour the in-place consumption contract of
// BuffersWriter, so callers can resume after a partial write.
func WriteBuffers(w io.Writer, bufs [][]byte) (int64, error) {
	if bw, ok := w.(BuffersWriter); ok {
		return bw.WriteBuffers(bufs)
	}
	var total int64
	for i := range bufs {
		for len(bufs[i]) > 0 {
			n, err := w.Write(bufs[i])
			bufs[i] = bufs[i][n:]
			total += int64(n)
			if err != nil {
				return total, err
			}
		}
		bufs[i] = nil
	}
	return total, nil
}

// Listener accepts inbound connections on one address.
type Listener interface {
	Accept() (Conn, error)
	Close() error
	// Addr reports the bound address as "host:port".
	Addr() string
}

// Network is the dialing and listening surface a single node sees.
type Network interface {
	// Listen binds addr and starts accepting connections.
	Listen(addr string) (Listener, error)
	// Dial connects to addr, failing after timeout (0 means no timeout).
	Dial(addr string, timeout time.Duration) (Conn, error)
}

// Sentinel errors shared by all backends. Backends may wrap these; use
// errors.Is for classification.
var (
	// ErrClosed is returned by operations on a connection or listener
	// that was closed locally.
	ErrClosed = errors.New("transport: use of closed connection")
	// ErrReset is returned when the peer vanished abruptly (node killed,
	// connection reset).
	ErrReset = errors.New("transport: connection reset by peer")
	// ErrRefused is returned by Dial when nothing listens on the address
	// or the target host is down.
	ErrRefused = errors.New("transport: connection refused")
)

// timeoutError is the deadline-exceeded error for the in-memory backend.
// It implements the Timeout() bool contract shared with net.Error so that
// callers can classify it with IsTimeout.
type timeoutError struct{ op string }

func (e *timeoutError) Error() string   { return "transport: " + e.op + " deadline exceeded" }
func (e *timeoutError) Timeout() bool   { return true }
func (e *timeoutError) Temporary() bool { return true }

// IsTimeout reports whether err is a deadline-exceeded condition, from
// either backend (net.Error or the in-memory pipe).
func IsTimeout(err error) bool {
	var t interface{ Timeout() bool }
	return errors.As(err, &t) && t.Timeout()
}

// IsClosed reports whether err indicates the local end was closed.
func IsClosed(err error) bool { return errors.Is(err, ErrClosed) }

// IsReset reports whether err indicates the remote end vanished.
func IsReset(err error) bool { return errors.Is(err, ErrReset) }
