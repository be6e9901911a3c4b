package control

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"kascade/internal/core"
)

// Server is the agent side of the control protocol: it serves any number
// of concurrent sessions per connection, runs engine admission for every
// PREPARE, and enforces per-session leases — a session whose sender stops
// heartbeating is killed individually, without disturbing its channel
// neighbours.
type Server struct {
	// Engine is the agent's shared data-plane engine; PREPARE admissions
	// and STATUS snapshots go against it.
	Engine *core.Engine
	// DataAddr resolves the data address to advertise to the sender
	// behind one control connection.
	DataAddr func(conn net.Conn) string
	// Run executes one started session to completion — building the node,
	// opening the sink — and returns its result. It must honour ctx: lease
	// expiry and RELEASE cancel it.
	Run func(ctx context.Context, req StartRequest) ResultReply
	// Join enters a live broadcast as a late peer: engine admission, the
	// graft negotiation with the session's sender, then the joiner node to
	// completion. grafted is called exactly once when the graft lands,
	// before the node runs; the ResultReply is the node's terminal state.
	// A non-nil error (typed: *core.AdmissionError, *core.JoinRefusedError,
	// core.ErrSessionEnded) means no node ran. Nil disables FrameJoin.
	Join func(ctx context.Context, req JoinRequest, grafted func(JoinedReply)) (ResultReply, error)

	// LeaseTTL is how long a prepared or running session survives without
	// a heartbeat. Defaults to 10 s.
	LeaseTTL time.Duration
	// Clock is the lease timer source. Nil selects the system clock.
	Clock core.Clock
}

// ctrlSession is one session's state on one control connection.
type ctrlSession struct {
	sid     core.SessionID
	expires time.Time
	ticket  *core.Ticket       // admission grant, cancellable until started
	cancel  context.CancelFunc // kills the running node (set at START)
	started bool
}

// serverConn serves one control connection.
type serverConn struct {
	s    *Server
	conn net.Conn
	clk  core.Clock
	ttl  time.Duration

	ctx    context.Context // conn lifetime: cancels queued admissions
	cancel context.CancelFunc

	wmu sync.Mutex // serialises frame writes

	mu       sync.Mutex
	sessions map[core.SessionID]*ctrlSession
	closed   bool
}

// ServeConn serves one control connection until it closes. r carries the
// (possibly peeked-into) read side of conn — the agent peeks at the first
// byte to check it is the frame magic. When the connection drops,
// sessions that never started are released immediately and running ones
// lose their renewal source: the lease sweeper keeps running detached and
// ends each of them within one lease TTL, so an orphaned node never runs
// on unbounded.
func (s *Server) ServeConn(conn net.Conn, r io.Reader) error {
	clk := s.Clock
	if clk == nil {
		clk = core.SystemClock()
	}
	ttl := s.LeaseTTL
	if ttl <= 0 {
		ttl = 10 * time.Second
	}
	ctx, cancel := context.WithCancel(context.Background())
	sc := &serverConn{
		s: s, conn: conn, clk: clk, ttl: ttl,
		ctx: ctx, cancel: cancel,
		sessions: make(map[core.SessionID]*ctrlSession),
	}
	go sc.sweepLeases()

	var err error
	for {
		var f frame
		f, err = readFrame(r)
		if err != nil {
			break
		}
		switch f.Type {
		case FramePrepare:
			go sc.handlePrepare(f)
		case FrameStart:
			go sc.handleStart(f)
		case FrameStatus:
			sc.handleStatus(f)
		case FrameRelease:
			sc.handleRelease(f)
		case FrameHeartbeat:
			sc.handleHeartbeat(f)
		case FrameJoin:
			go sc.handleJoin(f)
		default:
			sc.writeErr(f.Req, CodeBadRequest, fmt.Sprintf("unexpected frame %v", f.Type))
		}
	}
	sc.teardown()
	if err == io.EOF {
		return nil
	}
	return err
}

// teardown handles the channel dropping: queued admissions abort (ctx),
// sessions that never started release their grants immediately, and
// running sessions are left to the lease sweeper — with their renewal
// source gone, each ends within one lease TTL.
func (sc *serverConn) teardown() {
	sc.cancel()
	sc.mu.Lock()
	sc.closed = true
	var unstarted []*ctrlSession
	for sid, cs := range sc.sessions {
		if !cs.started {
			delete(sc.sessions, sid)
			unstarted = append(unstarted, cs)
		}
	}
	sc.mu.Unlock()
	for _, cs := range unstarted {
		sc.kill(cs)
	}
}

// kill releases one session's resources: a running node is cancelled, an
// admitted-but-unstarted grant returns to the engine budget.
func (sc *serverConn) kill(cs *ctrlSession) {
	if cs.started {
		if cs.cancel != nil {
			cs.cancel()
		}
		return
	}
	if cs.ticket != nil {
		cs.ticket.Cancel()
	}
}

func (sc *serverConn) write(typ FrameType, req uint64, payload any) {
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	_ = writeFrame(sc.conn, typ, req, payload) // conn death surfaces in the read loop
}

func (sc *serverConn) writeErr(req uint64, code, msg string) {
	sc.write(FrameError, req, ErrorReply{Code: code, Message: msg})
}

// handlePrepare runs admission for one session and, once admitted,
// installs its lease and reports the shared data address. Queued
// admissions block only this handler goroutine: the channel keeps serving
// other sessions' frames meanwhile.
func (sc *serverConn) handlePrepare(f frame) {
	var req PrepareRequest
	if err := f.decode(&req); err != nil {
		sc.writeErr(f.Req, CodeBadRequest, err.Error())
		return
	}
	ticket := sc.s.Engine.AdmitClass(req.Session, req.Reservation, req.Class)
	queued := false
	if ticket.Decision() == core.AdmitQueued {
		queued = true
		sc.write(FrameQueued, f.Req, QueuedNotice{WaitMs: ticket.Deadline.Sub(sc.clk.Now()).Milliseconds()})
	}
	decision, err := ticket.Wait(sc.ctx)
	if decision != core.AdmitAccepted {
		var adErr *core.AdmissionError
		switch {
		case errors.As(err, &adErr) && adErr.Queued:
			sc.writeErr(f.Req, CodeAdmissionTimeout, adErr.Reason)
		case errors.As(err, &adErr):
			sc.writeErr(f.Req, CodeAdmissionRefused, adErr.Reason)
		default:
			sc.writeErr(f.Req, CodeInternal, fmt.Sprintf("admission: %v", err))
		}
		return
	}

	sc.mu.Lock()
	if sc.closed {
		sc.mu.Unlock()
		ticket.Cancel()
		return
	}
	if _, dup := sc.sessions[req.Session]; dup {
		sc.mu.Unlock()
		ticket.Cancel()
		sc.writeErr(f.Req, CodeBadRequest, fmt.Sprintf("session %d already prepared on this channel", req.Session))
		return
	}
	sc.sessions[req.Session] = &ctrlSession{
		sid:     req.Session,
		expires: sc.clk.Now().Add(sc.ttl),
		ticket:  ticket,
	}
	sc.mu.Unlock()
	sc.write(FramePrepared, f.Req, PrepareReply{DataAddr: sc.s.DataAddr(sc.conn), Queued: queued})
}

// handleStart launches a prepared session's node and answers with its
// result when the broadcast completes.
func (sc *serverConn) handleStart(f frame) {
	var req StartRequest
	if err := f.decode(&req); err != nil {
		sc.writeErr(f.Req, CodeBadRequest, err.Error())
		return
	}
	sc.mu.Lock()
	cs, ok := sc.sessions[req.Session]
	if !ok || cs.started {
		sc.mu.Unlock()
		sc.writeErr(f.Req, CodeBadRequest, fmt.Sprintf("session %d not prepared (or already started) on this channel", req.Session))
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	cs.started = true
	cs.cancel = cancel
	cs.expires = sc.clk.Now().Add(sc.ttl)
	sc.mu.Unlock()
	defer cancel()

	res := sc.s.Run(ctx, req)

	sc.mu.Lock()
	delete(sc.sessions, req.Session)
	sc.mu.Unlock()
	if cs.ticket != nil {
		// Normally a no-op: the node adopted the admission grant at
		// register and released it at unregister. But a run that failed
		// before its node ever registered would otherwise leak the grant.
		cs.ticket.Cancel()
	}
	sc.write(FrameResult, f.Req, res)
}

// handleJoin enters a live broadcast as a late peer. The session rides
// the same lease machinery as a started one from the moment the request
// lands: a joiner whose operator stops heartbeating is killed like any
// other session. Two replies on one request ID: FrameJoined when the
// graft lands (or FrameError with a typed code), then FrameResult when
// the joiner node finishes.
func (sc *serverConn) handleJoin(f frame) {
	var req JoinRequest
	if err := f.decode(&req); err != nil {
		sc.writeErr(f.Req, CodeBadRequest, err.Error())
		return
	}
	if sc.s.Join == nil {
		sc.writeErr(f.Req, CodeBadRequest, "agent does not support late join")
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sc.mu.Lock()
	if sc.closed {
		sc.mu.Unlock()
		return
	}
	if _, dup := sc.sessions[req.Session]; dup {
		sc.mu.Unlock()
		sc.writeErr(f.Req, CodeBadRequest, fmt.Sprintf("session %d already held on this channel", req.Session))
		return
	}
	cs := &ctrlSession{
		sid:     req.Session,
		expires: sc.clk.Now().Add(sc.ttl),
		cancel:  cancel,
		started: true,
	}
	sc.sessions[req.Session] = cs
	sc.mu.Unlock()

	res, err := sc.s.Join(ctx, req, func(j JoinedReply) {
		sc.write(FrameJoined, f.Req, j)
	})

	sc.mu.Lock()
	delete(sc.sessions, req.Session)
	sc.mu.Unlock()
	if err != nil {
		sc.writeErr(f.Req, joinErrorCode(err), joinErrorMessage(err))
		return
	}
	sc.write(FrameResult, f.Req, res)
}

// joinErrorCode maps a join failure to its wire status code — membership
// codes straight from core, admission codes like PREPARE, CodeInternal
// otherwise. Never derived from error text.
func joinErrorCode(err error) string {
	if code := core.MembershipErrorCode(err); code != "" {
		return code
	}
	var adErr *core.AdmissionError
	if errors.As(err, &adErr) {
		if adErr.Queued {
			return CodeAdmissionTimeout
		}
		return CodeAdmissionRefused
	}
	return CodeInternal
}

// joinErrorMessage extracts the bare payload message: a refusal carries
// just its reason so the far end's rebuilt error does not nest prefixes.
func joinErrorMessage(err error) string {
	var jr *core.JoinRefusedError
	if errors.As(err, &jr) {
		return jr.Reason
	}
	var adErr *core.AdmissionError
	if errors.As(err, &adErr) {
		return adErr.Reason
	}
	return err.Error()
}

// memorySamples are the runtime/metrics names behind MemoryStats, in field
// order.
var memorySamples = [...]string{
	"/gc/heap/live:bytes",
	"/gc/heap/goal:bytes",
	"/gc/gogc:percent",
	"/gc/cycles/total:gc-cycles",
}

// readMemoryStats samples the process's heap. Every name is a Uint64
// metric since go 1.21, below this module's go line.
func readMemoryStats() MemoryStats {
	var s [len(memorySamples)]metrics.Sample
	for i, name := range memorySamples {
		s[i].Name = name
	}
	metrics.Read(s[:])
	return MemoryStats{
		HeapLive:  s[0].Value.Uint64(),
		HeapGoal:  s[1].Value.Uint64(),
		GCPercent: int64(s[2].Value.Uint64()), // the runtime stores GOGC=off as -1
		GCCycles:  s[3].Value.Uint64(),
	}
}

func (sc *serverConn) handleStatus(f frame) {
	rep := StatsReply{Engine: sc.s.Engine.Stats(), Memory: readMemoryStats()}
	now := sc.clk.Now()
	sc.mu.Lock()
	for _, cs := range sc.sessions {
		state := "prepared"
		if cs.started {
			state = "running"
		}
		rep.Sessions = append(rep.Sessions, SessionStatus{
			Session: cs.sid,
			State:   state,
			LeaseMs: cs.expires.Sub(now).Milliseconds(),
		})
	}
	sc.mu.Unlock()
	sort.Slice(rep.Sessions, func(i, j int) bool { return rep.Sessions[i].Session < rep.Sessions[j].Session })
	sc.write(FrameStats, f.Req, rep)
}

func (sc *serverConn) handleRelease(f frame) {
	var req ReleaseRequest
	if err := f.decode(&req); err != nil {
		sc.writeErr(f.Req, CodeBadRequest, err.Error())
		return
	}
	sc.mu.Lock()
	cs, ok := sc.sessions[req.Session]
	if ok {
		delete(sc.sessions, req.Session)
	}
	sc.mu.Unlock()
	if ok {
		sc.kill(cs)
	}
	sc.write(FrameReleased, f.Req, ReleasedReply{Known: ok})
}

func (sc *serverConn) handleHeartbeat(f frame) {
	var req HeartbeatRequest
	if err := f.decode(&req); err != nil {
		sc.writeErr(f.Req, CodeBadRequest, err.Error())
		return
	}
	var ack HeartbeatAck
	expires := sc.clk.Now().Add(sc.ttl)
	sc.mu.Lock()
	for _, sid := range req.Sessions {
		if cs, ok := sc.sessions[sid]; ok {
			cs.expires = expires
		} else {
			ack.Unknown = append(ack.Unknown, sid)
		}
	}
	sc.mu.Unlock()
	sc.write(FrameHeartbeatAck, f.Req, ack)
}

// sweepLeases kills sessions whose leases lapse — and only those: channel
// neighbours with fresh heartbeats are untouched. It outlives the
// connection on purpose: after teardown no renewal can arrive, so it
// keeps sweeping until the last running session's lease lapses, then
// exits.
func (sc *serverConn) sweepLeases() {
	interval := sc.ttl / 4
	if interval <= 0 {
		interval = time.Second
	}
	for {
		t := sc.clk.NewTimer(interval)
		<-t.C()
		now := sc.clk.Now()
		var expired []*ctrlSession
		sc.mu.Lock()
		for sid, cs := range sc.sessions {
			if cs.expires.Before(now) {
				delete(sc.sessions, sid)
				expired = append(expired, cs)
			}
		}
		drained := sc.closed && len(sc.sessions) == 0
		sc.mu.Unlock()
		for _, cs := range expired {
			sc.kill(cs)
		}
		if drained {
			return
		}
	}
}
