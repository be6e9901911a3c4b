package control

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kascade/internal/core"
	"kascade/internal/transport"
)

// TestFrameRoundTrip pins the wire layout: header fields survive, payloads
// decode, and the magic byte can never collide with a v1 JSON opener.
func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, FrameStart, 42, StartRequest{Session: 7, Index: 3}); err != nil {
		t.Fatal(err)
	}
	if buf.Bytes()[0] == '{' {
		t.Fatal("frame magic collides with JSON: v1 detection impossible")
	}
	if buf.Bytes()[0] != Magic {
		t.Fatalf("first byte 0x%02x, want magic 0x%02x", buf.Bytes()[0], Magic)
	}
	f, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != FrameStart || f.Req != 42 {
		t.Fatalf("header %v/%d, want START/42", f.Type, f.Req)
	}
	var req StartRequest
	if err := f.decode(&req); err != nil {
		t.Fatal(err)
	}
	if req.Session != 7 || req.Index != 3 {
		t.Fatalf("payload %+v", req)
	}

	// A legacy v1 JSON message must be rejected by its first byte.
	if _, err := readFrame(strings.NewReader(`{"op":"prepare"}`)); err == nil {
		t.Fatal("v1 JSON accepted as a frame")
	}
}

// harness wires a Server and a Client over an in-memory duplex pipe, with
// a real engine behind the server.
type harness struct {
	engine   *core.Engine
	server   *Server
	client   *Client
	runs     sync.Map // SessionID -> *runRecord
	serveErr chan error
}

type runRecord struct {
	started  chan struct{}
	release  chan struct{} // closed by the test to let Run finish
	ctxErr   atomic.Value  // error the run context ended with, if any
	finished chan struct{}
}

func newHarness(t *testing.T, engineOpts core.EngineOptions, srvMut func(*Server), cliOpts ClientOptions) *harness {
	t.Helper()
	fabric := transport.NewFabric(64 << 10)
	engine, err := core.NewEngine(fabric.Host("agent"), "agent:7000", engineOpts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { engine.Close() })

	h := &harness{engine: engine, serveErr: make(chan error, 1)}
	h.server = &Server{
		Engine:   engine,
		DataAddr: func(net.Conn) string { return "agent:7000" },
		Run: func(ctx context.Context, req StartRequest) ResultReply {
			rec := &runRecord{started: make(chan struct{}), release: make(chan struct{}), finished: make(chan struct{})}
			if prev, loaded := h.runs.LoadOrStore(req.Session, rec); loaded {
				rec = prev.(*runRecord)
			}
			close(rec.started)
			defer close(rec.finished)
			select {
			case <-ctx.Done():
				rec.ctxErr.Store(ctx.Err())
				return ResultReply{Err: "killed: " + ctx.Err().Error()}
			case <-rec.release:
				return ResultReply{Bytes: 1234}
			}
		},
	}
	if srvMut != nil {
		srvMut(h.server)
	}

	cliConn, srvConn := net.Pipe()
	go func() { h.serveErr <- h.server.ServeConn(srvConn, bufio.NewReader(srvConn)) }()
	h.client = NewClient(cliConn, cliOpts)
	t.Cleanup(func() { h.client.Close(); srvConn.Close() })
	return h
}

// record returns (creating if needed) the run record for sid, so tests can
// pre-arm the release channel before Start.
func (h *harness) record(sid core.SessionID) *runRecord {
	rec := &runRecord{started: make(chan struct{}), release: make(chan struct{}), finished: make(chan struct{})}
	if prev, loaded := h.runs.LoadOrStore(sid, rec); loaded {
		return prev.(*runRecord)
	}
	return rec
}

// TestPrepareStartResult drives a full session lifecycle over the framed
// channel.
func TestPrepareStartResult(t *testing.T) {
	h := newHarness(t, core.EngineOptions{}, nil, ClientOptions{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	rep, err := h.client.Prepare(ctx, PrepareRequest{Session: 9, Reservation: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DataAddr != "agent:7000" || rep.Queued {
		t.Fatalf("prepare reply %+v", rep)
	}
	if st := h.engine.Stats(); st.PoolReserved != 1<<10 {
		t.Fatalf("admission not debited: %+v", st)
	}

	rec := h.record(9)
	close(rec.release) // let the run finish immediately
	pending, err := h.client.Start(StartRequest{Session: 9, Index: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := pending.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != "" || res.Bytes != 1234 {
		t.Fatalf("result %+v", res)
	}
}

// TestStatusReportsMemory: a STATUS reply carries the serving process's
// collector state: its pacing target, its collections so far, and a heap
// goal no smaller than the live heap.
func TestStatusReportsMemory(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(60))
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	h := newHarness(t, core.EngineOptions{}, nil, ClientOptions{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	st, err := h.client.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	m := st.Memory
	if m.GCPercent != 60 || m.GCCycles < uint64(ms.NumGC) || m.HeapLive == 0 || m.HeapGoal < m.HeapLive {
		t.Fatalf("memory %+v, want GOGC 60, at least %d collections and a goal above a live heap", m, ms.NumGC)
	}
}

// TestAdmissionRefusalTyped: a refusal crosses the channel as the typed
// *core.AdmissionError, before any data connection exists.
func TestAdmissionRefusalTyped(t *testing.T) {
	h := newHarness(t, core.EngineOptions{MemBudget: 4 << 10}, nil, ClientOptions{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	_, err := h.client.Prepare(ctx, PrepareRequest{Session: 5, Reservation: 8 << 10})
	var adErr *core.AdmissionError
	if !errors.As(err, &adErr) {
		t.Fatalf("refusal error %v, want *core.AdmissionError", err)
	}
	if adErr.Session != 5 || adErr.Queued {
		t.Fatalf("refusal %+v", adErr)
	}
}

// TestAdmissionQueueOverChannel: a queued session parks (observable via
// STATUS), then admits the moment the blocking session releases.
func TestAdmissionQueueOverChannel(t *testing.T) {
	h := newHarness(t, core.EngineOptions{MemBudget: 4 << 10, AdmitQueueTimeout: 30 * time.Second}, nil, ClientOptions{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	if _, err := h.client.Prepare(ctx, PrepareRequest{Session: 1, Reservation: 3 << 10}); err != nil {
		t.Fatal(err)
	}
	recA := h.record(1)
	pendingA, err := h.client.Start(StartRequest{Session: 1, Index: 1})
	if err != nil {
		t.Fatal(err)
	}
	<-recA.started

	type prep struct {
		rep *PrepareReply
		err error
	}
	done := make(chan prep, 1)
	go func() {
		rep, err := h.client.Prepare(ctx, PrepareRequest{Session: 2, Reservation: 3 << 10})
		done <- prep{rep, err}
	}()

	// The queued session is visible in the engine stats over the channel.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := h.client.Status(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.Engine.AdmitQueue == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queued session never appeared in stats: %+v", st.Engine)
		}
		time.Sleep(5 * time.Millisecond)
	}
	select {
	case p := <-done:
		t.Fatalf("queued prepare resolved early: %+v, %v", p.rep, p.err)
	default:
	}

	// Session 1 finishing frees the budget; the queued prepare completes.
	close(recA.release)
	if _, err := pendingA.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-done:
		if p.err != nil {
			t.Fatalf("queued prepare failed: %v", p.err)
		}
		if !p.rep.Queued {
			t.Fatalf("reply does not record queueing: %+v", p.rep)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued prepare never resolved after release")
	}
}

// TestLeaseExpiryKillsExactlyTheLeasedSession: two sessions on one
// channel; only one is heartbeated. The lapsed one is killed; the
// heartbeated one keeps running undisturbed.
func TestLeaseExpiryKillsExactlyTheLeasedSession(t *testing.T) {
	h := newHarness(t, core.EngineOptions{},
		func(s *Server) { s.LeaseTTL = 250 * time.Millisecond },
		ClientOptions{HeartbeatInterval: -1}) // no automatic renewals
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()

	for _, sid := range []core.SessionID{1, 2} {
		if _, err := h.client.Prepare(ctx, PrepareRequest{Session: sid, Reservation: 1 << 10}); err != nil {
			t.Fatal(err)
		}
	}
	recs := map[core.SessionID]*runRecord{1: h.record(1), 2: h.record(2)}
	pendings := map[core.SessionID]*Pending{}
	for _, sid := range []core.SessionID{1, 2} {
		p, err := h.client.Start(StartRequest{Session: sid, Index: 1})
		if err != nil {
			t.Fatal(err)
		}
		pendings[sid] = p
		<-recs[sid].started
	}

	// Renew only session 2 while session 1's lease lapses.
	stopBeat := make(chan struct{})
	beatDone := make(chan struct{})
	go func() {
		defer close(beatDone)
		for {
			select {
			case <-stopBeat:
				return
			case <-time.After(50 * time.Millisecond):
				if _, err := h.client.Heartbeat(ctx, []core.SessionID{2}); err != nil {
					return
				}
			}
		}
	}()

	// Session 1 dies of lease expiry...
	res1, err := pendings[1].Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res1.Err, "killed") {
		t.Fatalf("lapsed session result %+v, want killed", res1)
	}
	// ...while session 2 is still running, untouched.
	select {
	case <-recs[2].finished:
		t.Fatal("heartbeated session was killed alongside the lapsed one")
	default:
	}
	close(stopBeat)
	<-beatDone

	// With heartbeats gone, session 2's lease lapses too.
	res2, err := pendings[2].Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res2.Err, "killed") {
		t.Fatalf("session 2 after heartbeats stopped: %+v", res2)
	}
}

// TestLeaseExpiryCancelsUnstartedAdmission: a prepared-but-never-started
// session's grant returns to the engine budget when its lease lapses.
func TestLeaseExpiryCancelsUnstartedAdmission(t *testing.T) {
	h := newHarness(t, core.EngineOptions{},
		func(s *Server) { s.LeaseTTL = 150 * time.Millisecond },
		ClientOptions{HeartbeatInterval: -1})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	if _, err := h.client.Prepare(ctx, PrepareRequest{Session: 3, Reservation: 2 << 10}); err != nil {
		t.Fatal(err)
	}
	if st := h.engine.Stats(); st.PoolReserved != 2<<10 {
		t.Fatalf("grant missing: %+v", st)
	}
	deadline := time.Now().Add(5 * time.Second)
	for h.engine.Stats().PoolReserved != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("lapsed admission never released: %+v", h.engine.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestReleaseAndHeartbeatAck: RELEASE withdraws a session; heartbeats for
// unknown sessions come back in the ack so clients prune them.
func TestReleaseAndHeartbeatAck(t *testing.T) {
	h := newHarness(t, core.EngineOptions{}, nil, ClientOptions{HeartbeatInterval: -1})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	if _, err := h.client.Prepare(ctx, PrepareRequest{Session: 8, Reservation: 1 << 10}); err != nil {
		t.Fatal(err)
	}
	known, err := h.client.Release(ctx, 8)
	if err != nil || !known {
		t.Fatalf("release: known=%v err=%v", known, err)
	}
	if st := h.engine.Stats(); st.PoolReserved != 0 {
		t.Fatalf("release leaked the grant: %+v", st)
	}
	ack, err := h.client.Heartbeat(ctx, []core.SessionID{8, 99})
	if err != nil {
		t.Fatal(err)
	}
	if len(ack.Unknown) != 2 {
		t.Fatalf("heartbeat ack %+v, want both unknown", ack)
	}
	if known, err := h.client.Release(ctx, 77); err != nil || known {
		t.Fatalf("release of unknown session: known=%v err=%v", known, err)
	}
}

// TestStartWithoutPrepareRejected: START is only valid for a prepared
// session on the same channel.
func TestStartWithoutPrepareRejected(t *testing.T) {
	h := newHarness(t, core.EngineOptions{}, nil, ClientOptions{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	p, err := h.client.Start(StartRequest{Session: 123, Index: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Wait(ctx); err == nil || !strings.Contains(err.Error(), "not prepared") {
		t.Fatalf("unprepared start: %v", err)
	}
}

// TestChannelCloseKillsSessions: the channel dropping stops lease
// renewals, so every session on it ends within one lease TTL.
func TestChannelCloseKillsSessions(t *testing.T) {
	h := newHarness(t, core.EngineOptions{},
		func(s *Server) { s.LeaseTTL = 300 * time.Millisecond },
		ClientOptions{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	if _, err := h.client.Prepare(ctx, PrepareRequest{Session: 4, Reservation: 1 << 10}); err != nil {
		t.Fatal(err)
	}
	rec := h.record(4)
	if _, err := h.client.Start(StartRequest{Session: 4, Index: 1}); err != nil {
		t.Fatal(err)
	}
	<-rec.started
	h.client.Close()
	select {
	case <-rec.finished:
		if err, _ := rec.ctxErr.Load().(error); err == nil {
			t.Fatal("run finished without cancellation")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("session survived its channel")
	}
	if err := <-h.serveErr; err != nil && !errors.Is(err, io.EOF) {
		t.Logf("serve returned: %v", err) // informative: pipe close error text varies
	}
}
