package core

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"

	"kascade/internal/transport"
)

// schedTestStore builds a windowStore sized for scheduler tests.
func schedTestStore(chunk, window int) *windowStore {
	return newWindowStore(chunk, window, newChunkPool(chunk, window+poolSlack))
}

// collectTurn runs next() on a background goroutine so tests can assert
// whether (and when) a turn is delivered.
func collectTurn(e *schedEntry, off uint64) chan schedTurn {
	ch := make(chan schedTurn, 1)
	go func() { ch <- e.next(off) }()
	return ch
}

func mustTurn(t *testing.T, ch chan schedTurn, what string) schedTurn {
	t.Helper()
	select {
	case turn := <-ch:
		return turn
	case <-time.After(2 * time.Second):
		t.Fatalf("%s: no turn delivered", what)
		return schedTurn{}
	}
}

func releaseTurn(turn schedTurn) {
	for _, c := range turn.batch {
		c.release()
	}
}

// TestSchedulerWeightedBudgets: one scheduled turn claims weight×quantum
// bytes — an interactive session drains four bulk quanta per rotation.
func TestSchedulerWeightedBudgets(t *testing.T) {
	s := newScheduler(1, 1024, 0, DefaultClasses(), nil)
	defer s.close()

	const chunk = 256
	payload := make([]byte, 64<<10)
	newEntry := func(class string) *schedEntry {
		st := newFileStore(bytes.NewReader(payload), int64(len(payload)), chunk, newChunkPool(chunk, 4))
		return s.register(st, class, 1<<20, 256)
	}

	bulk := newEntry(ClassBulk)
	if turn := mustTurn(t, collectTurn(bulk, 0), "bulk"); turn.n != 1024 || len(turn.batch) != 4 {
		t.Fatalf("bulk turn claimed %d bytes in %d chunks, want 1024 in 4", turn.n, len(turn.batch))
	} else {
		releaseTurn(turn)
	}

	interactive := newEntry(ClassInteractive)
	if turn := mustTurn(t, collectTurn(interactive, 0), "interactive"); turn.n != 4096 || len(turn.batch) != 16 {
		t.Fatalf("interactive turn claimed %d bytes in %d chunks, want 4096 in 16", turn.n, len(turn.batch))
	} else {
		releaseTurn(turn)
	}

	// Unknown class names weigh 1, and the session's MaxBatchBytes caps
	// the budget regardless of weight.
	odd := newEntry("no-such-class")
	if turn := mustTurn(t, collectTurn(odd, 0), "unknown class"); turn.n != 1024 {
		t.Fatalf("unknown-class turn claimed %d bytes, want 1024", turn.n)
	} else {
		releaseTurn(turn)
	}
	st := newFileStore(bytes.NewReader(payload), int64(len(payload)), chunk, newChunkPool(chunk, 4))
	capped := s.register(st, ClassInteractive, 512, 256)
	if turn := mustTurn(t, collectTurn(capped, 0), "capped"); turn.n != 512 {
		t.Fatalf("capped turn claimed %d bytes, want 512", turn.n)
	} else {
		releaseTurn(turn)
	}

	// Per-class accounting reached the stats.
	stats := s.classStats()
	if stats[ClassBulk].turns == 0 || stats[ClassInteractive].bytes < 4096 {
		t.Fatalf("scheduler class stats missing turns: %+v", stats)
	}
}

// TestSchedulerBatchedWakeups: a session whose claims fill its threshold
// is not woken per chunk — the store notify re-queues it only once a full
// quantum is buffered, and EOF flushes whatever remains immediately.
func TestSchedulerBatchedWakeups(t *testing.T) {
	const chunk, window = 64, 32 // ring holds 2 KiB; threshold clamp is 1 KiB
	s := newScheduler(1, 256, 0, map[string]int{ClassBulk: 1}, NewFakeClock(time.Unix(1000, 0)))
	defer s.close()
	ws := schedTestStore(chunk, window)
	e := s.register(ws, ClassBulk, 1<<20, 64)

	appendChunks := func(n int) {
		for i := 0; i < n; i++ {
			if err := ws.AppendBytes(bytes.Repeat([]byte{'x'}, chunk)); err != nil {
				t.Fatalf("append: %v", err)
			}
		}
	}

	// Fill a whole budget (4 chunks) before the first request: the claim
	// comes back full and raises the arm threshold to the full budget.
	appendChunks(4)
	turn := mustTurn(t, collectTurn(e, 0), "first turn")
	if turn.n != 256 {
		t.Fatalf("first turn claimed %d bytes, want 256", turn.n)
	}
	releaseTurn(turn)

	// Hot: the next request parks, and a single sub-quantum chunk must
	// NOT wake it — that is the batched wakeup.
	ch := collectTurn(e, 256)
	time.Sleep(20 * time.Millisecond) // let the worker arm the notify
	appendChunks(1)
	select {
	case turn := <-ch:
		t.Fatalf("sub-quantum append woke a threshold-armed session (turn of %d bytes)", turn.n)
	case <-time.After(100 * time.Millisecond):
	}
	appendChunks(3) // quantum complete: one notify, one turn
	turn = mustTurn(t, ch, "quantum turn")
	if turn.n != 256 || len(turn.batch) != 4 {
		t.Fatalf("quantum turn claimed %d bytes in %d chunks, want 256 in 4", turn.n, len(turn.batch))
	}
	releaseTurn(turn)
	ws.ResetLowWater(512)

	// EOF flushes a partial backlog immediately, hot or not.
	ch = collectTurn(e, 512)
	time.Sleep(20 * time.Millisecond)
	appendChunks(1)
	ws.Finish(512 + chunk)
	turn = mustTurn(t, ch, "tail flush")
	if turn.err != nil || turn.n != chunk {
		t.Fatalf("tail turn = %d bytes, err %v; want %d bytes", turn.n, turn.err, chunk)
	}
	releaseTurn(turn)
	if turn := mustTurn(t, collectTurn(e, 512+chunk), "EOF"); turn.err != io.EOF {
		t.Fatalf("post-end turn err = %v, want io.EOF", turn.err)
	}
}

// TestSchedulerAbortWakesParkedSession: poisoning the store must release a
// parked session with the abort cause — no goroutine may hang on a dead
// broadcast.
func TestSchedulerAbortWakesParkedSession(t *testing.T) {
	s := newScheduler(1, 256, 0, nil, nil)
	defer s.close()
	ws := schedTestStore(64, 8)
	e := s.register(ws, ClassBulk, 1<<20, 64)

	ch := collectTurn(e, 0)
	time.Sleep(20 * time.Millisecond)
	cause := errors.New("session killed")
	ws.Abort(cause)
	if turn := mustTurn(t, ch, "abort"); turn.err != cause {
		t.Fatalf("turn err = %v, want the abort cause", turn.err)
	}
}

// TestSchedulerDetachReleasesParkedSession: detaching (session end) and
// closing (engine end) both hand parked sessions the inline marker so they
// fall back to the direct store path instead of hanging.
func TestSchedulerDetachReleasesParkedSession(t *testing.T) {
	s := newScheduler(1, 256, 0, nil, nil)
	ws := schedTestStore(64, 8)
	e := s.register(ws, ClassBulk, 1<<20, 64)
	ch := collectTurn(e, 0)
	time.Sleep(20 * time.Millisecond)
	s.detach(e)
	if turn := mustTurn(t, ch, "detach"); !turn.inline {
		t.Fatalf("detached turn = %+v, want inline fallback", turn)
	}
	// After detach, next() answers inline immediately.
	if turn := e.next(0); !turn.inline {
		t.Fatalf("post-detach next = %+v, want inline", turn)
	}

	ws2 := schedTestStore(64, 8)
	e2 := s.register(ws2, ClassBulk, 1<<20, 64)
	ch2 := collectTurn(e2, 0)
	time.Sleep(20 * time.Millisecond)
	s.close()
	if turn := mustTurn(t, ch2, "close"); !turn.inline {
		t.Fatalf("close turn = %+v, want inline fallback", turn)
	}
}

// TestEngineParkPerSessionCap: a flood of dials naming one bogus session
// may pin at most MaxParkedPerSession park slots — the rest are refused
// and counted — while the global park stays available to other sessions.
func TestEngineParkPerSessionCap(t *testing.T) {
	fabric := transport.NewFabric(64 << 10)
	e, err := NewEngine(fabric.Host("srv"), "srv:7000", EngineOptions{
		MaxParkedPerSession: 2,
		ParkTimeout:         5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	client := fabric.Host("cli")

	for i := 0; i < 4; i++ {
		dialHello(t, client, "srv:7000", RoleData, i, 77)
	}
	waitStats(t, e, func(st EngineStats) bool {
		return st.Parked == 2 && st.ParkSessionOverflow == 2
	}, "per-session cap")

	// A different session still parks: the cap is per session, not global.
	dialHello(t, client, "srv:7000", RoleData, 9, 78)
	waitStats(t, e, func(st EngineStats) bool { return st.Parked == 3 }, "sibling session parks")
}

// TestEngineParkPerIPCap: one remote IP may pin at most MaxParkedPerIP
// park slots across however many session IDs it invents; other dialers
// are unaffected.
func TestEngineParkPerIPCap(t *testing.T) {
	fabric := transport.NewFabric(64 << 10)
	e, err := NewEngine(fabric.Host("srv"), "srv:7000", EngineOptions{
		MaxParkedPerIP: 2,
		ParkTimeout:    5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	flood := fabric.Host("attacker")
	for i := 0; i < 4; i++ {
		dialHello(t, flood, "srv:7000", RoleData, i, SessionID(100+i))
	}
	waitStats(t, e, func(st EngineStats) bool {
		return st.Parked == 2 && st.ParkIPOverflow == 2
	}, "per-IP cap")

	// An honest dialer from another host still parks.
	dialHello(t, fabric.Host("cli"), "srv:7000", RoleData, 1, 200)
	waitStats(t, e, func(st EngineStats) bool { return st.Parked == 3 }, "other host parks")
}

// waitStats polls the engine stats until cond holds (the accept path is
// asynchronous) or the deadline passes.
func waitStats(t *testing.T, e *Engine, cond func(EngineStats) bool, what string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if cond(e.Stats()) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: stats never converged: %+v", what, e.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSchedulerFlushTimer: a threshold arm must not
// strand a sub-quantum backlog when the producer pauses mid-stream — the
// flush timer demotes the session to cold and delivers what is buffered.
func TestSchedulerFlushTimer(t *testing.T) {
	const chunk = 64
	clk := NewFakeClock(time.Unix(1000, 0))
	s := newScheduler(1, 256, 0, map[string]int{ClassBulk: 1}, clk)
	defer s.close()
	ws := schedTestStore(chunk, 32)
	e := s.register(ws, ClassBulk, 1<<20, 64)

	appendChunks := func(n int) {
		for i := 0; i < n; i++ {
			if err := ws.AppendBytes(bytes.Repeat([]byte{'y'}, chunk)); err != nil {
				t.Fatalf("append: %v", err)
			}
		}
	}

	// A full first claim raises the arm threshold to the full budget.
	appendChunks(4)
	turn := mustTurn(t, collectTurn(e, 0), "first turn")
	if turn.n != 256 {
		t.Fatalf("first turn claimed %d bytes, want 256", turn.n)
	}
	releaseTurn(turn)
	ws.ResetLowWater(256)

	// Park at the threshold, then trickle ONE sub-quantum chunk and stop (a paused
	// producer, no EOF): the threshold alone would never fire.
	ch := collectTurn(e, 256)
	time.Sleep(20 * time.Millisecond) // let the worker arm notify + flush timer
	appendChunks(1)
	select {
	case turn := <-ch:
		t.Fatalf("sub-quantum append woke a threshold-armed session early (%d bytes)", turn.n)
	case <-time.After(50 * time.Millisecond):
	}
	clk.Advance(schedFlushDelay + time.Millisecond)
	turn = mustTurn(t, ch, "flush")
	if turn.err != nil || turn.n != chunk {
		t.Fatalf("flushed turn = %d bytes, err %v; want the stranded %d-byte chunk", turn.n, turn.err, chunk)
	}
	releaseTurn(turn)
}
