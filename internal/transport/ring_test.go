package transport

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"
	"time"
)

// Rings are attached by a direction's first write and handed back to a
// process-wide pool when the connection closes or breaks, without being
// zeroed. These tests pin what that must never change: no byte crosses from
// one connection to the next, buffered bytes still drain, and every error a
// reader or writer sees after Close, Kill or a partition is the one it saw
// when each pipe owned its ring for life.

// dialAccept opens one more connection from host a to l, which (unlike
// fabricPair's) stays open for the next call.
func dialAccept(tb testing.TB, f *Fabric, l Listener) (dialed, accepted Conn) {
	tb.Helper()
	dialed, err := f.Host("a").Dial(l.Addr(), time.Second)
	if err != nil {
		tb.Fatal(err)
	}
	if accepted, err = l.Accept(); err != nil {
		tb.Fatal(err)
	}
	return dialed, accepted
}

// TestRingReuseLeaksNoBytes fills a connection's rings with a pattern,
// closes it, and checks that the next connections — which draw the same
// dirty rings from the pool — deliver exactly what was written on them.
func TestRingReuseLeaksNoBytes(t *testing.T) {
	const size = 3 << 10 // a capacity no other test's pipes share
	f := NewFabric(size)
	l, err := f.Host("b").Listen(":1")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	pattern := bytes.Repeat([]byte{0xA5}, size)
	c, s := dialAccept(t, f, l)
	for _, conn := range []Conn{c, s} {
		if _, err := conn.Write(pattern); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	s.Close()

	// Under -race sync.Pool drops some Puts, so one round may get a fresh
	// ring; several rounds make reuse all but certain without the test
	// depending on it.
	for round := 0; round < 8; round++ {
		c, s := dialAccept(t, f, l)
		if _, err := c.Write([]byte{byte(round)}); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, size)
		n, err := s.Read(got)
		if err != nil || n != 1 || got[0] != byte(round) {
			t.Fatalf("round %d: read %d bytes %x, %v; want the one byte written", round, n, got[:n], err)
		}
		// Drain-then-EOF on a recycled ring: the writer closes with bytes
		// still buffered, the reader gets all of them and then io.EOF.
		tail := []byte{1, 2, 3, byte(round)}
		if _, err := c.Write(tail); err != nil {
			t.Fatal(err)
		}
		c.Close()
		rest, err := io.ReadAll(s)
		if err != nil || !bytes.Equal(rest, tail) {
			t.Fatalf("round %d: drained %x, %v; want %x then EOF", round, rest, err, tail)
		}
		s.Close()
	}
}

// TestErrorsAfterCloseAndKill checks the sentinel errors on connections
// that hold buffered bytes in both directions when they end — the case in
// which ending the connection gives rings back.
func TestErrorsAfterCloseAndKill(t *testing.T) {
	one := make([]byte, 1)
	loaded := func(f *Fabric) (c, s Conn) {
		c, s = fabricPair(t, f)
		for _, conn := range []Conn{c, s} {
			if _, err := conn.Write([]byte("buffered")); err != nil {
				t.Fatal(err)
			}
		}
		return c, s
	}

	c, s := loaded(NewFabric(0))
	c.Close()
	if _, err := c.Read(one); err != ErrClosed {
		t.Errorf("read on closed conn: %v, want ErrClosed", err)
	}
	if _, err := c.Write(one); err != ErrClosed {
		t.Errorf("write on closed conn: %v, want ErrClosed", err)
	}
	if _, err := s.Write(one); err != ErrReset {
		t.Errorf("write to closed peer: %v, want ErrReset", err)
	}
	if got, err := io.ReadAll(s); err != nil || string(got) != "buffered" {
		t.Errorf("read from closed peer: %q, %v; want the buffered bytes then EOF", got, err)
	}

	f := NewFabric(0)
	c, s = loaded(f)
	f.Kill("b")
	for name, conn := range map[string]Conn{"dialer": c, "accepted": s} {
		if _, err := conn.Read(one); err != ErrReset {
			t.Errorf("%s read after Kill: %v, want ErrReset", name, err)
		}
		if _, err := conn.Write(one); err != ErrReset {
			t.Errorf("%s write after Kill: %v, want ErrReset", name, err)
		}
		conn.Close()
		if _, err := conn.Read(one); err != ErrReset {
			t.Errorf("%s read after Kill+Close: %v, want ErrReset", name, err)
		}
	}
}

// TestPauseSurvivesWriterClose: a partition stalls bytes already in the
// ring; the writer giving up and closing its handle mid-partition must not
// lose them or let them through early.
func TestPauseSurvivesWriterClose(t *testing.T) {
	f := NewFabric(0)
	c, s := fabricPair(t, f)
	if _, err := c.Write([]byte("in flight")); err != nil {
		t.Fatal(err)
	}
	f.Partition("a", "b")
	c.Close()

	s.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	if n, err := s.Read(make([]byte, 16)); !IsTimeout(err) {
		t.Fatalf("read through partition after writer close: %d bytes, %v; want timeout", n, err)
	}
	f.Heal("a", "b")
	s.SetReadDeadline(time.Time{})
	if got, err := io.ReadAll(s); err != nil || string(got) != "in flight" {
		t.Fatalf("after heal: %q, %v", got, err)
	}
}

// TestFailedDialsLeaveNoConns: a dial that times out on a full backlog, or
// is refused because the listener closed under it, must not stay in the
// fabric's connection table.
func TestFailedDialsLeaveNoConns(t *testing.T) {
	f := NewFabric(0)
	l, err := f.Host("b").Listen(":1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cap(l.(*memListener).pending); i++ {
		if _, err := f.Host("a").Dial("b:1", time.Second); err != nil {
			t.Fatal(err)
		}
	}
	open := func() int {
		f.mu.Lock()
		defer f.mu.Unlock()
		return len(f.conns)
	}
	start := open()

	if _, err := f.Host("a").Dial("b:1", 10*time.Millisecond); !IsTimeout(err) {
		t.Fatalf("dial on a full backlog: %v, want timeout", err)
	}
	if got := open(); got != start {
		t.Fatalf("%d endpoints registered after a timed-out dial, want %d", got, start)
	}

	refused := make(chan error, 1)
	go func() {
		_, err := f.Host("a").Dial("b:1", 5*time.Second)
		refused <- err
	}()
	for open() == start { // until the blocked dial has registered its endpoints
		time.Sleep(time.Millisecond)
	}
	l.Close()
	if err := <-refused; !errors.Is(err, ErrRefused) {
		t.Fatalf("dial across listener close: %v, want refused", err)
	}
	if got := open(); got != start {
		t.Fatalf("%d endpoints registered after a refused dial, want %d", got, start)
	}
}

// dialExchangeClose is one short-lived connection: dial, accept, msg each
// way, close both ends.
func dialExchangeClose(tb testing.TB, f *Fabric, l Listener, msg []byte) {
	c, s := dialAccept(tb, f, l)
	for _, dir := range [][2]Conn{{c, s}, {s, c}} {
		if _, err := dir[0].Write(msg); err != nil {
			tb.Fatal(err)
		}
		if _, err := io.ReadFull(dir[1], msg); err != nil {
			tb.Fatal(err)
		}
	}
	c.Close()
	s.Close()
}

// TestDialExchangeCloseAllocs: a connection costs its bookkeeping, not its
// capacity — on NewFabric(1<<20) an eager ring per direction would be 2 MiB
// allocated and zeroed per Dial.
func TestDialExchangeCloseAllocs(t *testing.T) {
	f := NewFabric(1 << 20)
	l, err := f.Host("b").Listen(":1")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	msg := make([]byte, 40)
	// One P, as AllocsPerRun measures: a ring parked in another P's private
	// pool slot cannot be taken from here and would count as a fresh 1 MiB.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	dialExchangeClose(t, f, l, msg) // the first connection of a size fills the pool
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, func() { dialExchangeClose(t, f, l, msg) })
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / (runs + 1) // AllocsPerRun adds a run of its own
	t.Logf("%.0f allocs, %d bytes per dial+exchange+close", allocs, perRun)
	if raceEnabled {
		return // sync.Pool drops a quarter of all Puts under the race detector
	}
	if perRun >= 16<<10 {
		t.Errorf("dial+exchange+close allocates %d bytes, want < 16 KiB", perRun)
	}
}

// BenchmarkFabricDialClose is the per-connection cost a broadcast pays 20 to
// 30 times over.
func BenchmarkFabricDialClose(b *testing.B) {
	f := NewFabric(1 << 20)
	l, err := f.Host("b").Listen(":1")
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	msg := make([]byte, 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dialExchangeClose(b, f, l, msg)
	}
}
