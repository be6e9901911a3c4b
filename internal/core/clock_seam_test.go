package core

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sync/atomic"
	"testing"
	"time"

	"kascade/internal/transport"
)

// countingClock wraps a Clock and counts how often its Now is consulted,
// proving a code path really runs on the injected seam.
type countingClock struct {
	Clock
	nows atomic.Int64
}

func (c *countingClock) Now() time.Time {
	c.nows.Add(1)
	return c.Clock.Now()
}

// deadlineConn records the absolute deadlines set on it.
type deadlineConn struct {
	loopConn
	read, write time.Time
}

func (d *deadlineConn) SetReadDeadline(t time.Time) error  { d.read = t; return nil }
func (d *deadlineConn) SetWriteDeadline(t time.Time) error { d.write = t; return nil }

// TestWireDeadlinesUseInjectedClock is the regression test for the wire
// half of the clock seam: a wire built on a fake clock must base its
// connection deadlines on that clock, never on the system time. (The bug:
// newWire silently defaulted to time.Now, so any constructor that forgot
// to overwrite wire.now escaped the chaos harness's fake clock.)
func TestWireDeadlinesUseInjectedClock(t *testing.T) {
	base := time.Date(2200, 1, 1, 0, 0, 0, 0, time.UTC) // unmistakably not wall time
	clk := NewFakeClock(base)
	conn := &deadlineConn{}
	w := newWire(conn, clk)

	w.setReadDeadlineIn(5 * time.Second)
	if want := base.Add(5 * time.Second); !conn.read.Equal(want) {
		t.Fatalf("read deadline %v, want fake-clock %v", conn.read, want)
	}
	w.setWriteDeadlineIn(3 * time.Second)
	if want := base.Add(3 * time.Second); !conn.write.Equal(want) {
		t.Fatalf("write deadline %v, want fake-clock %v", conn.write, want)
	}
	clk.Advance(time.Minute)
	w.setReadDeadlineIn(time.Second)
	if want := base.Add(time.Minute + time.Second); !conn.read.Equal(want) {
		t.Fatalf("read deadline after advance %v, want %v", conn.read, want)
	}
}

// zeroTimers counts the timers armed with no delay on the wrapped clock:
// a loop that polls with a zero interval fires one at every turn.
type zeroTimers struct {
	*countingClock
	zero atomic.Int64
}

func (c *zeroTimers) NewTimer(d time.Duration) Timer {
	if d <= 0 {
		c.zero.Add(1)
	}
	return c.countingClock.NewTimer(d)
}

// TestFakeClockSessionNeverReadsSystemClock is the regression test for the
// session half of the seam: with Options.Clock injected, the session's
// start stamp and Elapsed must come from that clock. The fake clock never
// advances here, so any time.Now/time.Since leak in the session timing
// shows up as a non-zero Elapsed (real wall time passes while the
// broadcast runs). The rows cover the static shapes at a size with relays
// and leaves: their managers must settle on worker exits alone, so one
// that waits on a timer hangs here until the row's deadline, and one that
// polls with a zero interval shows up in the zero-timer count.
func TestFakeClockSessionNeverReadsSystemClock(t *testing.T) {
	for _, topo := range []string{TopologyChain, TopologyTree(2), TopologyTree(3)} {
		t.Run(topo, func(t *testing.T) {
			clk := &zeroTimers{countingClock: &countingClock{Clock: NewFakeClock(time.Now())}}
			fabric := transport.NewFabric(1 << 20)
			const nodes, size = 7, 64 << 10
			peers := make([]Peer, nodes)
			for i := range peers {
				peers[i] = Peer{Name: fmt.Sprintf("n%d", i+1), Addr: fmt.Sprintf("n%d:7000", i+1)}
			}
			payload := make([]byte, size)
			for i := range payload {
				payload[i] = byte(i)
			}
			// The session's own timeouts run on the frozen clock, so a hung
			// session never returns: the deadline is watched on the wall.
			const deadline = 5 * time.Second
			ctx, cancel := context.WithTimeout(context.Background(), deadline)
			defer cancel()
			type result struct {
				res *SessionResult
				err error
			}
			resc := make(chan result, 1)
			go func() {
				res, err := RunSession(ctx, SessionConfig{
					Peers:    peers,
					Topology: topo,
					Opts: Options{
						Clock:        clk,
						ChunkSize:    8 << 10,
						WindowChunks: 4,
					},
					NetworkFor: func(i int) transport.Network { return fabric.Host(peers[i].Name) },
					SinkFor:    func(int) io.Writer { return io.Discard },
					InputFile:  bytes.NewReader(payload),
					InputSize:  size,
				})
				resc <- result{res, err}
			}()
			var r result
			select {
			case r = <-resc:
			case <-ctx.Done():
				t.Fatalf("session outlived its %v deadline on a never-advancing fake clock: a manager waits on a timer", deadline)
			}
			if r.err != nil {
				t.Fatal(r.err)
			}
			res := r.res
			if res.Report.TotalBytes != size {
				t.Fatalf("delivered %d of %d bytes", res.Report.TotalBytes, size)
			}
			if res.Elapsed != 0 {
				t.Fatalf("Elapsed = %v on a never-advancing fake clock: session timing leaked to the system clock", res.Elapsed)
			}
			if clk.nows.Load() == 0 {
				t.Fatal("injected clock was never consulted: the seam is not wired through")
			}
			if z := clk.zero.Load(); z > 0 {
				t.Fatalf("%d zero-delay timers armed: a static session polls", z)
			}
		})
	}
}
