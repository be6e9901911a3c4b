package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"kascade/internal/transport"
)

// fakeHandler records the connections an Engine routes to it.
type fakeHandler struct {
	got   chan Role
	fails chan error
}

func newFakeHandler() *fakeHandler {
	return &fakeHandler{got: make(chan Role, 8), fails: make(chan error, 1)}
}

func (h *fakeHandler) handleWire(w *wire, role Role, from int) {
	h.got <- role
	_ = w.close()
}

func (h *fakeHandler) listenerFailed(err error) {
	select {
	case h.fails <- err:
	default:
	}
}

// dialHello opens a data-plane connection to addr and plays the opening
// HELLO for session sid.
func dialHello(t *testing.T, net transport.Network, addr string, role Role, from int, sid SessionID) *wire {
	t.Helper()
	c, err := net.Dial(addr, time.Second)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	w := newWire(c, SystemClock())
	if err := w.writeHello(role, from, sid); err != nil {
		t.Fatalf("hello: %v", err)
	}
	return w
}

func awaitRole(t *testing.T, h *fakeHandler, want Role, what string) {
	t.Helper()
	select {
	case role := <-h.got:
		if role != want {
			t.Fatalf("%s: routed role %v, want %v", what, role, want)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("%s: connection never routed", what)
	}
}

// TestEngineSessionRouting checks that one shared listener routes each
// connection to the session named in its HELLO, the unnamed session 0
// included.
func TestEngineSessionRouting(t *testing.T) {
	fabric := transport.NewFabric(64 << 10)
	e, err := NewEngine(fabric.Host("srv"), "srv:7000", EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	h0, h1, h2 := newFakeHandler(), newFakeHandler(), newFakeHandler()
	for sid, h := range map[SessionID]*fakeHandler{0: h0, 1: h1, 2: h2} {
		if _, err := e.register(sid, h, 1024, 4, ""); err != nil {
			t.Fatalf("register %d: %v", sid, err)
		}
		e.attach(sid, h)
	}

	client := fabric.Host("cli")
	dialHello(t, client, "srv:7000", RoleData, 3, 1)
	awaitRole(t, h1, RoleData, "session 1")
	dialHello(t, client, "srv:7000", RolePing, 4, 2)
	awaitRole(t, h2, RolePing, "session 2")
	dialHello(t, client, "srv:7000", RoleFetch, 5, 0)
	awaitRole(t, h0, RoleFetch, "unnamed session 0")

	select {
	case r := <-h1.got:
		t.Fatalf("session 1 got a stray connection (role %v)", r)
	default:
	}
}

// TestEngineParksEarlyConnections checks the prepare/start race cover: a
// connection for a session that has not registered yet is parked and
// flushed to the handler when the registration lands, and one whose
// session never registers is dropped at the park timeout.
func TestEngineParksEarlyConnections(t *testing.T) {
	fabric := transport.NewFabric(64 << 10)
	e, err := NewEngine(fabric.Host("srv"), "srv:7000", EngineOptions{ParkTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	client := fabric.Host("cli")

	// Early conn for session 9: parked now, flushed at register.
	dialHello(t, client, "srv:7000", RoleData, 1, 9)
	deadline := time.Now().Add(2 * time.Second)
	for e.Stats().Parked == 0 {
		if time.Now().After(deadline) {
			t.Fatal("connection never parked")
		}
		time.Sleep(time.Millisecond)
	}
	h := newFakeHandler()
	if _, err := e.register(9, h, 1024, 4, ""); err != nil {
		t.Fatal(err)
	}
	// Registered but not yet attached: still parked (the node is mid-
	// prepare; nothing may be routed into it).
	if got := e.Stats().Parked; got != 1 {
		t.Fatalf("%d conns parked after register, want still 1", got)
	}
	e.attach(9, h)
	awaitRole(t, h, RoleData, "flushed parked conn")
	if got := e.Stats().Parked; got != 0 {
		t.Fatalf("%d conns still parked after flush", got)
	}

	// Conn for a session nobody registers: dropped at the park timeout.
	w := dialHello(t, client, "srv:7000", RoleData, 1, 77)
	_ = w.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := w.readType(); err == nil || transport.IsTimeout(err) {
		t.Fatalf("expired parked conn read: %v, want closed/reset", err)
	}
}

// TestEnginePoolBudget checks the per-session accounting: grants come out
// of the shared budget, a reservation that does not fit is refused with a
// typed *AdmissionError (no more silent floor-sized pools), and grants
// return to the budget on unregister.
func TestEnginePoolBudget(t *testing.T) {
	fabric := transport.NewFabric(64 << 10)
	const chunk = 1 << 10
	e, err := NewEngine(fabric.Host("srv"), "srv:7000", EngineOptions{MemBudget: 10 * chunk})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	hA, hB, hC := newFakeHandler(), newFakeHandler(), newFakeHandler()
	if _, err := e.register(1, hA, chunk, 8, ""); err != nil { // fits: granted 8
		t.Fatal(err)
	}
	e.attach(1, hA)
	// 2 chunks left of the budget: an 8-chunk reservation is refused with
	// the typed admission error, not floored.
	var adErr *AdmissionError
	if _, err := e.register(2, hB, chunk, 8, ""); !errors.As(err, &adErr) {
		t.Fatalf("overload register: %v, want *AdmissionError", err)
	} else if adErr.Session != 2 {
		t.Fatalf("admission error names session %d, want 2", adErr.Session)
	}
	// A 2-chunk reservation still fits.
	if _, err := e.register(2, hB, chunk, 2, ""); err != nil {
		t.Fatal(err)
	}
	e.attach(2, hB)
	st := e.Stats()
	if st.PerSession[1] != 8*chunk {
		t.Fatalf("session 1 reserved %d, want %d", st.PerSession[1], 8*chunk)
	}
	if st.PerSession[2] != 2*chunk {
		t.Fatalf("session 2 reserved %d, want %d", st.PerSession[2], 2*chunk)
	}
	if st.PoolReserved != 10*chunk {
		t.Fatalf("total reserved %d, want %d", st.PoolReserved, 10*chunk)
	}
	if st.Refused != 1 {
		t.Fatalf("refused counter %d, want 1", st.Refused)
	}

	// Duplicate session IDs are refused.
	if _, err := e.register(1, hC, chunk, 2, ""); err == nil {
		t.Fatal("duplicate register accepted")
	}
	// A stale unregister (wrong handler) must not evict the owner.
	e.unregister(1, hC)
	if st := e.Stats(); st.Sessions != 2 {
		t.Fatalf("stale unregister removed a session: %d registered", st.Sessions)
	}

	// Releasing session 1 returns its grant; a new session can take it.
	e.unregister(1, hA)
	if st := e.Stats(); st.PoolReserved != 2*chunk {
		t.Fatalf("reserved %d after release, want %d", st.PoolReserved, 2*chunk)
	}
	if _, err := e.register(3, hC, chunk, 6, ""); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.PerSession[3] != 6*chunk {
		t.Fatalf("session 3 reserved %d, want %d", st.PerSession[3], 6*chunk)
	}
}

// TestEngineParkReapsRemoteClose is the parked-connection leak fix: a
// parked dialer that gives up and closes its end frees the park slot
// immediately, well before ParkTimeout, and is counted as reaped.
func TestEngineParkReapsRemoteClose(t *testing.T) {
	fabric := transport.NewFabric(64 << 10)
	e, err := NewEngine(fabric.Host("srv"), "srv:7000", EngineOptions{ParkTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	client := fabric.Host("cli")

	w := dialHello(t, client, "srv:7000", RoleData, 1, 42) // never registered: parked
	deadline := time.Now().Add(2 * time.Second)
	for e.Stats().Parked == 0 {
		if time.Now().After(deadline) {
			t.Fatal("connection never parked")
		}
		time.Sleep(time.Millisecond)
	}
	_ = w.close() // the dialer gives up long before the 1-minute ParkTimeout

	for e.Stats().Parked != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("parked slot still pinned after remote close: %+v", e.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if st := e.Stats(); st.ParkReaped != 1 || st.ParkExpired != 0 {
		t.Fatalf("reaped=%d expired=%d, want 1/0", st.ParkReaped, st.ParkExpired)
	}
}

// TestEngineParkedBytesSurviveAdoption: a parked connection that already
// sent protocol bytes (a fetch dialer's early PGET) must hand those bytes
// intact to the adopting session — the remote-close watcher peeks, never
// consumes.
func TestEngineParkedBytesSurviveAdoption(t *testing.T) {
	fabric := transport.NewFabric(64 << 10)
	e, err := NewEngine(fabric.Host("srv"), "srv:7000", EngineOptions{ParkTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	client := fabric.Host("cli")

	w := dialHello(t, client, "srv:7000", RoleFetch, 2, 7)
	if err := w.writePGet(123, 456); err != nil { // bytes arrive while parked
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for e.Stats().Parked == 0 {
		if time.Now().After(deadline) {
			t.Fatal("connection never parked")
		}
		time.Sleep(time.Millisecond)
	}
	// Give the watcher a moment to observe the pending bytes, then adopt.
	time.Sleep(20 * time.Millisecond)

	type gotFrame struct {
		role     Role
		from     int
		lo, hi   uint64
		frameErr error
	}
	frames := make(chan gotFrame, 1)
	h := &funcHandler{fn: func(w *wire, role Role, from int) {
		g := gotFrame{role: role, from: from}
		w.setReadDeadlineIn(time.Second)
		typ, err := w.readType()
		if err != nil || typ != MsgPGet {
			g.frameErr = fmt.Errorf("first frame %v, err %v", typ, err)
		} else {
			g.lo, g.hi, g.frameErr = w.readPGet()
		}
		frames <- g
		_ = w.close()
	}}
	if _, err := e.register(7, h, 1024, 4, ""); err != nil {
		t.Fatal(err)
	}
	e.attach(7, h)

	select {
	case g := <-frames:
		if g.frameErr != nil {
			t.Fatalf("adopted conn corrupted: %v", g.frameErr)
		}
		if g.role != RoleFetch || g.from != 2 || g.lo != 123 || g.hi != 456 {
			t.Fatalf("got role=%v from=%d pget=[%d,%d)", g.role, g.from, g.lo, g.hi)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("parked conn never handed to the session")
	}
	if st := e.Stats(); st.ParkReaped != 0 {
		t.Fatalf("adoption counted as reap: %+v", st)
	}
}

// funcHandler adapts a function to connHandler for routing tests.
type funcHandler struct {
	fn func(w *wire, role Role, from int)
}

func (h *funcHandler) handleWire(w *wire, role Role, from int) { h.fn(w, role, from) }
func (h *funcHandler) listenerFailed(err error)                {}

// TestEngineCloseNotifiesSessions checks that closing the engine (the
// shared accept path dying) reaches every registered session.
func TestEngineCloseNotifiesSessions(t *testing.T) {
	fabric := transport.NewFabric(64 << 10)
	e, err := NewEngine(fabric.Host("srv"), "srv:7000", EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h := newFakeHandler()
	if _, err := e.register(5, h, 1024, 2, ""); err != nil {
		t.Fatal(err)
	}
	e.attach(5, h)
	e.Close()
	select {
	case <-h.fails:
	case <-time.After(2 * time.Second):
		t.Fatal("registered session never told the listener died")
	}
	if _, err := e.register(6, newFakeHandler(), 1024, 2, ""); err == nil {
		t.Fatal("register on a closed engine accepted")
	}
}

// TestNodeRejectsForeignSession checks session-ID routing on a node's
// private engine: a dialer naming another session is dropped, a matching
// one is served.
func TestNodeRejectsForeignSession(t *testing.T) {
	fabric := transport.NewFabric(64 << 10)
	srvNet := fabric.Host("srv")
	plan := Plan{
		Peers: []Peer{
			{Name: "sender", Addr: "other:7000"},
			{Name: "srv", Addr: "srv:7000"},
		},
		Opts:    Options{ChunkSize: 1 << 10, WindowChunks: 4, PingTimeout: 200 * time.Millisecond},
		Session: 5,
	}
	n, err := NewNode(NodeConfig{Index: 1, Plan: plan, Network: srvNet, Engine: testEngine(t, srvNet, "srv:7000", plan.Opts)})
	if err != nil {
		t.Fatal(err)
	}
	n.ictx, n.cancel = context.WithCancel(context.Background())
	defer n.cancel()
	if err := n.prepare(); err != nil {
		t.Fatal(err)
	}

	client := fabric.Host("cli")
	ping := func(sid SessionID) bool {
		w := dialHello(t, client, "srv:7000", RolePing, 0, sid)
		defer w.close()
		if err := w.writePing(); err != nil {
			return false
		}
		_ = w.conn.SetReadDeadline(time.Now().Add(time.Second))
		typ, err := w.readType()
		return err == nil && typ == MsgPong
	}
	if !ping(5) {
		t.Fatal("matching session ping unanswered")
	}
	if ping(6) {
		t.Fatal("foreign-session ping answered")
	}
}

// TestEngineRefusesRetiredSession checks that an engine closes a
// connection for a session it has retired at once, as the closed listener
// of a finished node would refuse it, instead of parking it until
// ParkTimeout; and that a session registering again is routed again.
func TestEngineRefusesRetiredSession(t *testing.T) {
	fabric := transport.NewFabric(64 << 10)
	e, err := NewEngine(fabric.Host("srv"), "srv:7000", EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	h := newFakeHandler()
	if _, err := e.register(5, h, 1024, 2, ""); err != nil {
		t.Fatal(err)
	}
	e.attach(5, h)
	e.unregister(5, h)

	w := dialHello(t, fabric.Host("cli"), "srv:7000", RoleData, 0, 5)
	defer w.close()
	_ = w.conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	start := time.Now()
	if _, err := w.readType(); err == nil || transport.IsTimeout(err) {
		t.Fatalf("read on a retired session's connection: %v after %v, want it closed at once", err, time.Since(start))
	}
	if p := e.Stats().Parked; p != 0 {
		t.Fatalf("retired session's connection parked (Parked=%d)", p)
	}

	h2 := newFakeHandler()
	if _, err := e.register(5, h2, 1024, 2, ""); err != nil {
		t.Fatal(err)
	}
	e.attach(5, h2)
	dialHello(t, fabric.Host("cli"), "srv:7000", RoleData, 0, 5)
	awaitRole(t, h2, RoleData, "re-registered session 5")
}
