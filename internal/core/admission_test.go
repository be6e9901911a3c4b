package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"kascade/internal/transport"
)

// admitTestEngine builds an engine with a small budget for admission tests.
func admitTestEngine(t *testing.T, budget int64, opts EngineOptions) *Engine {
	t.Helper()
	fabric := transport.NewFabric(64 << 10)
	opts.MemBudget = budget
	e, err := NewEngine(fabric.Host("srv"), "srv:7000", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// TestAdmitAcceptRefuse covers the immediate decisions: a fitting
// reservation is accepted and debited; an impossible one (larger than the
// whole budget) and a duplicate are refused with reasons.
func TestAdmitAcceptRefuse(t *testing.T) {
	e := admitTestEngine(t, 10<<10, EngineOptions{})

	tk := e.Admit(1, 8<<10)
	if tk.Decision() != AdmitAccepted {
		t.Fatalf("fitting reservation: %v (%v)", tk.Decision(), tk.Err())
	}
	if st := e.Stats(); st.PoolReserved != 8<<10 || st.Admitted != 1 {
		t.Fatalf("accepted reservation not debited: %+v", st)
	}

	// Impossible: larger than the entire budget — refused, never queued.
	tk = e.Admit(2, 11<<10)
	if tk.Decision() != AdmitRefused {
		t.Fatalf("impossible reservation: %v", tk.Decision())
	}
	var adErr *AdmissionError
	if err := tk.Err(); !errors.As(err, &adErr) || adErr.Session != 2 || adErr.Queued {
		t.Fatalf("refusal error: %v", err)
	}

	// Duplicate of an admitted session.
	if tk := e.Admit(1, 1<<10); tk.Decision() != AdmitRefused {
		t.Fatalf("duplicate admit: %v", tk.Decision())
	}
	// The default v1 session may not be admitted explicitly.
	if tk := e.Admit(0, 1<<10); tk.Decision() != AdmitRefused {
		t.Fatalf("session-0 admit: %v", tk.Decision())
	}
	if st := e.Stats(); st.Refused != 3 {
		t.Fatalf("refused counter %d, want 3", st.Refused)
	}
}

// TestAdmitDefaultSessionsFitDefaultBudget pins what the defaults buy an
// agent: the default 256 MiB budget admits 14 default sessions of 18 MiB
// ((64+8) chunks of 256 KiB) at once and queues the 15th.
func TestAdmitDefaultSessionsFitDefaultBudget(t *testing.T) {
	e := admitTestEngine(t, 0, EngineOptions{})
	res := Options{}.PoolReservation()
	for sid := SessionID(1); sid <= 14; sid++ {
		if tk := e.Admit(sid, res); tk.Decision() != AdmitAccepted {
			t.Fatalf("default session %d of 14: %v (%v)", sid, tk.Decision(), tk.Err())
		}
	}
	tk := e.Admit(15, res)
	defer tk.Cancel()
	if tk.Decision() != AdmitQueued {
		t.Fatalf("15th default session: %v, want queued", tk.Decision())
	}
}

// TestAdmitQueueReleasedOnSessionEnd: a reservation that does not fit now
// queues, is observable in EngineStats, and is admitted the moment a
// running session's release frees the budget.
func TestAdmitQueueReleasedOnSessionEnd(t *testing.T) {
	e := admitTestEngine(t, 10<<10, EngineOptions{AdmitQueueTimeout: 30 * time.Second})
	h := newFakeHandler()

	tkA := e.Admit(1, 8<<10)
	if tkA.Decision() != AdmitAccepted {
		t.Fatalf("session 1: %v", tkA.Decision())
	}
	if _, err := e.register(1, h, 1<<10, 8, ""); err != nil { // adopt the grant
		t.Fatal(err)
	}
	e.attach(1, h)

	tkB := e.Admit(2, 6<<10) // does not fit until session 1 ends
	if tkB.Decision() != AdmitQueued {
		t.Fatalf("session 2: %v, want queued", tkB.Decision())
	}
	if st := e.Stats(); st.AdmitQueue != 1 || st.Queued != 1 {
		t.Fatalf("queue not observable: %+v", st)
	}

	waitDone := make(chan AdmitDecision, 1)
	go func() {
		d, _ := tkB.Wait(context.Background())
		waitDone <- d
	}()
	select {
	case d := <-waitDone:
		t.Fatalf("queued ticket resolved early: %v", d)
	case <-time.After(50 * time.Millisecond):
	}

	e.unregister(1, h) // release hook: budget frees, the queue pumps
	select {
	case d := <-waitDone:
		if d != AdmitAccepted {
			t.Fatalf("after release: %v (%v)", d, tkB.Err())
		}
	case <-time.After(2 * time.Second):
		t.Fatal("queued admission never resolved after budget freed")
	}
	st := e.Stats()
	if st.AdmitQueue != 0 || st.PoolReserved != 6<<10 {
		t.Fatalf("post-release stats: %+v", st)
	}

	// The admitted-but-unregistered grant is cancellable (lease expiry).
	tkB.Cancel()
	if st := e.Stats(); st.PoolReserved != 0 {
		t.Fatalf("cancel left %d B reserved", st.PoolReserved)
	}
}

// TestAdmitQueueFIFONoStarvation: the queue resolves strictly FIFO — a
// large reservation at the head is not starved by a small one behind it.
func TestAdmitQueueFIFONoStarvation(t *testing.T) {
	e := admitTestEngine(t, 10<<10, EngineOptions{AdmitQueueTimeout: 30 * time.Second})
	h := newFakeHandler()
	if _, err := e.register(1, h, 1<<10, 9, ""); err != nil {
		t.Fatal(err)
	}
	e.attach(1, h)

	big := e.Admit(2, 8<<10)   // queued first
	small := e.Admit(3, 1<<10) // would fit right now, but must wait its turn
	if big.Decision() != AdmitQueued || small.Decision() != AdmitQueued {
		t.Fatalf("decisions: big=%v small=%v", big.Decision(), small.Decision())
	}

	e.unregister(1, h) // frees 9 KiB: head (8 KiB) fits, then small (1 KiB)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if d, err := big.Wait(ctx); d != AdmitAccepted {
		t.Fatalf("big: %v (%v)", d, err)
	}
	if d, err := small.Wait(ctx); d != AdmitAccepted {
		t.Fatalf("small: %v (%v)", d, err)
	}
}

// TestAdmitQueueTimeout: a queued session whose deadline passes without
// budget freeing resolves to a typed, queue-flagged refusal.
func TestAdmitQueueTimeout(t *testing.T) {
	clk := NewFakeClock(time.Unix(1000, 0))
	e := admitTestEngine(t, 10<<10, EngineOptions{AdmitQueueTimeout: 5 * time.Second, Clock: clk})
	h := newFakeHandler()
	if _, err := e.register(1, h, 1<<10, 8, ""); err != nil {
		t.Fatal(err)
	}

	tk := e.Admit(2, 8<<10)
	if tk.Decision() != AdmitQueued {
		t.Fatalf("decision %v, want queued", tk.Decision())
	}
	clk.Advance(6 * time.Second)
	d, err := tk.Wait(context.Background())
	if d != AdmitRefused {
		t.Fatalf("after deadline: %v", d)
	}
	var adErr *AdmissionError
	if !errors.As(err, &adErr) || !adErr.Queued {
		t.Fatalf("timeout error not typed/queued: %v", err)
	}
	if st := e.Stats(); st.QueueTimeouts != 1 || st.AdmitQueue != 0 {
		t.Fatalf("timeout stats: %+v", st)
	}
}

// TestAdmitMaxSessionsCap: the session cap queues sessions even when the
// byte budget would fit them, and frees on session end.
func TestAdmitMaxSessionsCap(t *testing.T) {
	e := admitTestEngine(t, 1<<20, EngineOptions{MaxSessions: 1, AdmitQueueTimeout: 30 * time.Second})
	h := newFakeHandler()
	if _, err := e.register(1, h, 1<<10, 4, ""); err != nil {
		t.Fatal(err)
	}
	tk := e.Admit(2, 4<<10)
	if tk.Decision() != AdmitQueued {
		t.Fatalf("over session cap: %v, want queued", tk.Decision())
	}
	e.unregister(1, h)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if d, err := tk.Wait(ctx); d != AdmitAccepted {
		t.Fatalf("after cap freed: %v (%v)", d, err)
	}
}

// TestAdmittedReservationAdoptedByRegister: register adopts the admitted
// byte grant instead of re-reserving, so admission and registration never
// double-count.
func TestAdmittedReservationAdoptedByRegister(t *testing.T) {
	e := admitTestEngine(t, 10<<10, EngineOptions{})
	opts := Options{ChunkSize: 1 << 10, PoolChunks: 6, WindowChunks: 4}
	if tk := e.Admit(4, opts.PoolReservation()); tk.Decision() != AdmitAccepted {
		t.Fatalf("admit: %v", tk.Decision())
	}
	h := newFakeHandler()
	if _, err := e.register(4, h, opts.ChunkSize, opts.PoolChunks, ""); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.PoolReserved != 6<<10 || len(st.PerSession) != 1 {
		t.Fatalf("double-counted adoption: %+v", st)
	}
	// Now owned: a second register of the same sid is a duplicate.
	if _, err := e.register(4, newFakeHandler(), 1<<10, 2, ""); err == nil {
		t.Fatal("duplicate register after adoption accepted")
	}
	e.unregister(4, h)
	if st := e.Stats(); st.PoolReserved != 0 {
		t.Fatalf("release after adoption leaked: %+v", st)
	}
}

// TestStaleCancelCannotRevokeNewerGrant: a Cancel from an old ticket must
// not revoke a NEWER admission that reused the same session ID (the
// agent's post-run cleanup races re-prepares of recycled IDs).
func TestStaleCancelCannotRevokeNewerGrant(t *testing.T) {
	e := admitTestEngine(t, 10<<10, EngineOptions{})
	h := newFakeHandler()

	old := e.Admit(1, 2<<10)
	if old.Decision() != AdmitAccepted {
		t.Fatalf("first admit: %v", old.Decision())
	}
	if _, err := e.register(1, h, 1<<10, 2, ""); err != nil {
		t.Fatal(err)
	}
	e.unregister(1, h) // session 1's first run ends; the ID is free again

	fresh := e.Admit(1, 3<<10) // a new broadcast reuses the ID
	if fresh.Decision() != AdmitAccepted {
		t.Fatalf("re-admit: %v", fresh.Decision())
	}
	old.Cancel() // the first run's cleanup fires late
	if st := e.Stats(); st.PoolReserved != 3<<10 {
		t.Fatalf("stale cancel revoked the new grant: %+v", st)
	}
	fresh.Cancel()
	if st := e.Stats(); st.PoolReserved != 0 {
		t.Fatalf("owning cancel failed: %+v", st)
	}
}

// TestAdmitEngineCloseResolvesQueue: closing the engine refuses every
// queued admission instead of leaving waiters hung.
func TestAdmitEngineCloseResolvesQueue(t *testing.T) {
	e := admitTestEngine(t, 10<<10, EngineOptions{AdmitQueueTimeout: time.Hour})
	h := newFakeHandler()
	if _, err := e.register(1, h, 1<<10, 8, ""); err != nil {
		t.Fatal(err)
	}
	tk := e.Admit(2, 8<<10)
	if tk.Decision() != AdmitQueued {
		t.Fatalf("decision %v", tk.Decision())
	}
	e.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if d, err := tk.Wait(ctx); d != AdmitRefused || err == nil {
		t.Fatalf("after close: %v (%v)", d, err)
	}
}

// admittedClassOrder drives the weighted admit pump one slot at a time:
// with exactly one reservation's worth of budget freeing per round, each
// round admits exactly one waiter (whose ticket is then cancelled to free
// the slot again), so the pump's class ordering becomes observable.
func admittedClassOrder(t *testing.T, e *Engine, tickets []*Ticket, rounds int) []string {
	t.Helper()
	var order []string
	admitted := make(map[*Ticket]bool)
	for r := 0; r < rounds; r++ {
		var winner *Ticket
		for _, tk := range tickets {
			if !admitted[tk] && tk.Decision() == AdmitAccepted {
				if winner != nil {
					t.Fatalf("round %d admitted two waiters at once", r)
				}
				winner = tk
			}
		}
		if winner == nil {
			t.Fatalf("round %d admitted nobody (order so far %v)", r, order)
		}
		admitted[winner] = true
		// Recover the class from the grant the admission debited.
		e.mu.Lock()
		class := e.reserved[winner.Session].class
		e.mu.Unlock()
		order = append(order, class)
		winner.Cancel() // frees the slot: the pump admits the next pick
	}
	return order
}

// TestAdmitClassOrderedPump: the admission queue resolves by weighted
// round-robin across classes — interactive (weight 4) waiters are admitted
// more often than bulk (weight 1) ones, FIFO within each class, and no
// class is starved.
func TestAdmitClassOrderedPump(t *testing.T) {
	const slot = 1 << 10
	e := admitTestEngine(t, slot, EngineOptions{AdmitQueueTimeout: time.Hour})
	h := newFakeHandler()
	if _, err := e.register(99, h, slot, 1, ""); err != nil { // consume the whole budget
		t.Fatal(err)
	}

	var tickets []*Ticket
	classes := []string{
		ClassBulk, ClassBulk, // B1 B2 queued first...
		ClassInteractive, ClassInteractive, ClassInteractive, ClassInteractive, // ...I1-I4 behind them
	}
	for i, class := range classes {
		tk := e.AdmitClass(SessionID(i+1), slot, class)
		if tk.Decision() != AdmitQueued {
			t.Fatalf("waiter %d (%s): %v, want queued", i, class, tk.Decision())
		}
		tickets = append(tickets, tk)
	}
	if st := e.Stats(); st.Classes[ClassBulk].Queued != 2 || st.Classes[ClassInteractive].Queued != 4 {
		t.Fatalf("per-class queue counters: %+v", st.Classes)
	}

	e.unregister(99, h) // frees exactly one slot; each Cancel frees the next
	order := admittedClassOrder(t, e, tickets, len(tickets))

	// Interactive outranks bulk on the first pick despite queueing later,
	// and bulk is not starved: both bulk waiters land within the first
	// five admissions (weight ratio 4:1 admits ≥1 bulk per 5 picks).
	if order[0] != ClassInteractive {
		t.Fatalf("first admission went to %q, want interactive: %v", order[0], order)
	}
	bulkSeen := 0
	for i, class := range order {
		if class == ClassBulk {
			bulkSeen++
			if i >= 5 && bulkSeen == 1 {
				t.Fatalf("first bulk admission only at position %d: %v", i, order)
			}
		}
	}
	if bulkSeen != 2 {
		t.Fatalf("admitted %d bulk waiters, want 2: %v", bulkSeen, order)
	}
}

// TestAdmitLowWeightClassNotStarved: a continuous arrival stream of
// high-weight admissions cannot starve a queued low-weight waiter — the
// weighted round-robin guarantees bulk its share of picks.
func TestAdmitLowWeightClassNotStarved(t *testing.T) {
	const slot = 1 << 10
	e := admitTestEngine(t, slot, EngineOptions{AdmitQueueTimeout: time.Hour})
	h := newFakeHandler()
	if _, err := e.register(99, h, slot, 1, ""); err != nil {
		t.Fatal(err)
	}

	bulk := e.AdmitClass(1, slot, ClassBulk)
	next := SessionID(1000)
	interactive := []*Ticket{}
	for i := 0; i < 4; i++ {
		interactive = append(interactive, e.AdmitClass(next, slot, ClassInteractive))
		next++
	}

	e.unregister(99, h)
	for round := 0; round < 12; round++ {
		if bulk.Decision() == AdmitAccepted {
			if st := e.Stats(); st.Classes[ClassBulk].Admitted != 1 {
				t.Fatalf("bulk admitted but not counted: %+v", st.Classes)
			}
			return
		}
		// Keep the pressure on: every freed slot is contested by a fresh
		// interactive arrival queued behind the existing ones.
		interactive = append(interactive, e.AdmitClass(next, slot, ClassInteractive))
		next++
		freed := false
		for i, tk := range interactive {
			if tk != nil && tk.Decision() == AdmitAccepted {
				tk.Cancel()
				interactive[i] = nil
				freed = true
				break
			}
		}
		if !freed {
			t.Fatalf("round %d: nothing admitted at all", round)
		}
	}
	t.Fatalf("bulk waiter starved behind interactive arrivals: %v", bulk.Decision())
}

// TestAdmitUnknownClassFolded: class names outside the configured table
// are folded into the default class — an untrusted control client
// inventing fresh names per PREPARE must not grow the per-class maps.
func TestAdmitUnknownClassFolded(t *testing.T) {
	e := admitTestEngine(t, 10<<10, EngineOptions{})
	for i := 0; i < 5; i++ {
		tk := e.AdmitClass(SessionID(i+1), 1<<10, fmt.Sprintf("invented-%d", i))
		if tk.Decision() != AdmitAccepted {
			t.Fatalf("admit %d: %v", i, tk.Decision())
		}
	}
	st := e.Stats()
	for class := range st.Classes {
		if class != "" && class != ClassBulk && class != ClassInteractive {
			t.Fatalf("invented class %q leaked into stats: %+v", class, st.Classes)
		}
	}
	if st.Classes[""].Admitted != 5 || st.Classes[""].Sessions != 5 {
		t.Fatalf("folded class accounting wrong: %+v", st.Classes[""])
	}
}

// TestAdmitLargeReservationNotStarvedAcrossClasses: the sticky head-of-line
// claim carries the old strict-FIFO guarantee across classes — a large
// bulk reservation accumulates every byte of freed budget instead of
// watching a churn of small high-weight sessions consume it forever.
func TestAdmitLargeReservationNotStarvedAcrossClasses(t *testing.T) {
	const slot = 1 << 10
	e := admitTestEngine(t, 8*slot, EngineOptions{AdmitQueueTimeout: time.Hour})
	// Eight small interactive sessions hold the whole budget.
	var running []*Ticket
	for i := 0; i < 8; i++ {
		tk := e.AdmitClass(SessionID(100+i), slot, ClassInteractive)
		if tk.Decision() != AdmitAccepted {
			t.Fatalf("filler %d: %v", i, tk.Decision())
		}
		running = append(running, tk)
	}

	big := e.AdmitClass(1, 6*slot, ClassBulk) // needs most of the budget
	if big.Decision() != AdmitQueued {
		t.Fatalf("big: %v, want queued", big.Decision())
	}

	// Churn: one running session ends per round and a fresh interactive
	// immediately queues for its slot. Without the sticky claim, the
	// freed slot goes to an interactive pick 4 rounds in 5 and the 6-slot
	// reservation never fits.
	next := SessionID(1000)
	for round := 0; round < 16 && big.Decision() != AdmitAccepted; round++ {
		e.AdmitClass(next, slot, ClassInteractive)
		next++
		running[0].Cancel()
		running = running[1:]
		if len(running) == 0 {
			break
		}
	}
	if big.Decision() != AdmitAccepted {
		t.Fatalf("big bulk reservation starved across classes: %v (stats %+v)", big.Decision(), e.Stats())
	}

	// With the claimant admitted (and gone), the pump resumes for the
	// interactive waiters that queued behind it.
	queuedBefore := e.Stats().AdmitQueue
	big.Cancel()
	st := e.Stats()
	if st.AdmitQueue >= queuedBefore {
		t.Fatalf("queue did not pump after the claimant left: %d -> %d waiters", queuedBefore, st.AdmitQueue)
	}
	if st.PoolReserved > st.PoolBudget {
		t.Fatalf("budget over-committed: %+v", st)
	}
}
