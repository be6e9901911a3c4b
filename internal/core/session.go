package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"kascade/internal/transport"
)

// SessionConfig describes an in-process broadcast: every pipeline member
// runs as a goroutine inside this process, each with its own Network view
// (distinct fabric hosts, or the shared TCP stack for loopback runs).
type SessionConfig struct {
	// Peers is the ordered pipeline; Peers[0] is the sender. When a
	// peer's Addr is empty, the session binds an ephemeral address and
	// fills it in (supported by the TCP backend via "127.0.0.1:0").
	Peers []Peer
	Opts  Options

	// Session identifies this broadcast on shared engines. Required
	// (non-zero) when EngineFor is set; 0 names the unnamed session of
	// members that run on private engines.
	Session SessionID

	// Topology selects the dissemination shape (Plan.Topology): "" or
	// TopologyChain for the paper's linear pipeline, TopologyTree(k) for
	// the k-ary BFS tree. TopologyScatterAllgather is a composite plan
	// core.Node cannot run — dispatch it to internal/mpibcast instead.
	Topology string

	// NetworkFor returns the network surface of pipeline member i.
	NetworkFor func(i int) transport.Network

	// EngineFor, when set, attaches pipeline member i to a shared
	// per-process Engine: the peer's address becomes the engine's shared
	// data address and its connections are routed by Session. This is how
	// many overlapping broadcasts run through the same set of processes.
	// Without it, each member gets a private engine bound at its Addr.
	EngineFor func(i int) *Engine

	// Input is the streamed source payload; InputFile/InputSize take
	// precedence when InputFile is non-nil (random-access source).
	Input     io.Reader
	InputFile io.ReaderAt
	InputSize int64

	// SinkFor returns receiver i's local sink (nil to discard).
	SinkFor func(i int) io.Writer

	// Trace observes every node's recovery-path transitions (each event
	// carries the emitting node's index). Nil disables tracing.
	Trace Tracer
}

// Validate checks the session configuration before any engine binds.
// It is the lifecycle API's single validation front door: the structural
// wiring (peers, network/engine hooks) and the topology × options shape
// that Options.Validate and Plan.Validate used to split between them. Address checks are deliberately absent — peers may carry
// empty or duplicate addresses until StartSession resolves ephemeral
// binds, after which the derived Plan re-validates with addresses.
func (cfg *SessionConfig) Validate() error {
	if len(cfg.Peers) == 0 {
		return fmt.Errorf("kascade: session needs at least the sender")
	}
	if cfg.NetworkFor == nil {
		return fmt.Errorf("kascade: session needs a NetworkFor function")
	}
	if cfg.EngineFor != nil && cfg.Session == 0 {
		return fmt.Errorf("kascade: engine-attached sessions need a non-zero session ID")
	}
	return validateShape(cfg.Topology, cfg.Opts)
}

// SessionResult aggregates the outcome of an in-process broadcast.
type SessionResult struct {
	// Report is the sender's final ring report.
	Report *Report
	// Elapsed is the sender-observed wall-clock duration.
	Elapsed time.Duration
	// NodeErrs holds each receiver's terminal error (nil on success),
	// indexed by pipeline position; entry 0 is the sender's.
	NodeErrs []error
	// Received holds the payload byte count each node ingested.
	Received []uint64
}

// Throughput returns the broadcast throughput in bytes/second as the paper
// computes it: transmitted size divided by completion time.
func (r *SessionResult) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Report.TotalBytes) / r.Elapsed.Seconds()
}

// Session is a broadcast in flight. Nodes exposes the live pipeline members
// (useful to observe progress or to coordinate fault injection in tests);
// Wait blocks until the sender has its final report and every surviving
// receiver finished its protocol epilogue.
type Session struct {
	Nodes []*Node
	Plan  Plan

	clk    Clock
	start  time.Time
	wg     *sync.WaitGroup
	res    *SessionResult
	sender struct {
		report *Report
		err    error
	}
}

// RunSession executes a complete broadcast in-process and returns once the
// sender has its final report and all surviving receivers finished their
// protocol epilogue. Receivers that die mid-transfer (fabric kills) report
// their own errors in NodeErrs without failing the session.
func RunSession(ctx context.Context, cfg SessionConfig) (*SessionResult, error) {
	s, err := StartSession(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return s.Wait()
}

// StartSession builds or finds every member's engine, builds the nodes and
// launches them, then returns immediately with the live session. A member
// without an EngineFor engine gets a private one (NewSessionEngine), bound
// up front so that no dial races a listen, and closed when its node
// returns.
func StartSession(ctx context.Context, cfg SessionConfig) (*Session, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	peers := append([]Peer(nil), cfg.Peers...)
	engines := make([]*Engine, len(peers))
	owned := make([]*Engine, len(peers)) // the private ones; nil where shared
	fail := func(err error) (*Session, error) {
		for _, e := range owned {
			if e != nil {
				_ = e.Close()
			}
		}
		return nil, err
	}
	for i := range peers {
		if cfg.EngineFor != nil {
			engines[i] = cfg.EngineFor(i)
		} else {
			e, err := NewSessionEngine(cfg.NetworkFor(i), peers[i].Addr, cfg.Opts)
			if err != nil {
				return fail(err)
			}
			owned[i] = e
			engines[i] = e
		}
		peers[i].Addr = engines[i].Addr() // resolve ephemeral ports
	}

	plan := Plan{Peers: peers, Opts: cfg.Opts, Session: cfg.Session, Topology: cfg.Topology}
	if err := plan.Validate(); err != nil {
		return fail(err)
	}

	nodes := make([]*Node, len(peers))
	for i := range peers {
		nc := NodeConfig{
			Index:   i,
			Plan:    plan,
			Network: cfg.NetworkFor(i),
			Engine:  engines[i],
			Trace:   cfg.Trace,
		}
		if i == 0 {
			nc.InputFile = cfg.InputFile
			nc.InputSize = cfg.InputSize
			if cfg.InputFile == nil {
				nc.Input = cfg.Input
			}
		} else if cfg.SinkFor != nil {
			nc.Sink = cfg.SinkFor(i)
		}
		n, err := NewNode(nc)
		if err != nil {
			return fail(err)
		}
		nodes[i] = n
	}

	// Session timing runs on the same injectable clock as the nodes: a
	// fake-clock session (the chaos harness) must never consult the
	// system clock, or Elapsed drifts from the simulated timeline.
	clk := cfg.Opts.withDefaults().Clock
	s := &Session{
		Nodes: nodes,
		Plan:  plan,
		clk:   clk,
		wg:    &sync.WaitGroup{},
		res: &SessionResult{
			NodeErrs: make([]error, len(peers)),
			Received: make([]uint64, len(peers)),
		},
		start: clk.Now(),
	}
	for i := range nodes {
		s.wg.Add(1)
		go func(i int) {
			defer s.wg.Done()
			if e := owned[i]; e != nil {
				defer e.Close()
			}
			rep, err := nodes[i].Run(ctx)
			s.res.NodeErrs[i] = err
			if i == 0 {
				s.sender.report, s.sender.err = rep, err
				s.res.Elapsed = s.clk.Now().Sub(s.start)
			}
		}(i)
	}
	return s, nil
}

// JoinConfig describes one late joiner of an in-process session: the
// same lifecycle surface as SessionConfig, scoped to a single peer.
type JoinConfig struct {
	// Peer names the joiner; its Addr may be empty or ephemeral and is
	// resolved when the joiner's private engine binds it (ignored when
	// Engine is set — the engine's shared data address is used).
	Peer Peer
	// Network is the joiner's network view.
	Network transport.Network
	// Engine, when set, attaches the joiner to a shared per-process
	// engine: its admission (accept/queue/refuse, typed *AdmissionError)
	// runs before the graft, and the engine's listener carries the
	// joiner's connections. Without it the joiner gets a private engine on
	// Network, which closes when the joiner returns.
	Engine *Engine
	// Sink receives the complete payload (catch-up bytes first, in
	// order); nil discards.
	Sink io.Writer
	// Trace observes the joiner's recovery-path transitions; nil falls
	// back to untraced.
	Trace Tracer
}

// JoinHandle tracks one admitted late joiner to completion.
type JoinHandle struct {
	// Node is the joiner's live pipeline member.
	Node *Node
	// Grant is the planner's admission ticket (index, membership,
	// catch-up boundary).
	Grant *JoinGrant

	done chan struct{}
	rep  *Report
	err  error
}

// Wait blocks until the joiner finished its protocol epilogue (which
// includes catch-up parity: a joiner never certifies a partial sink).
func (h *JoinHandle) Wait() (*Report, error) {
	<-h.done
	return h.rep, h.err
}

// Err returns the joiner's terminal error once finished; nil before.
func (h *JoinHandle) Err() error {
	select {
	case <-h.done:
		return h.err
	default:
		return nil
	}
}

// Join admits a late joiner into the live broadcast and runs it to
// completion in the background. The admission reuses the engine's
// accept/queue/refuse semantics when the joiner is engine-attached
// (typed *AdmissionError on refusal), then grafts the joiner onto the
// dissemination tree via the planner on node 0 — typed failures:
// *JoinRefusedError when the session cannot take joiners,
// ErrSessionEnded once the broadcast closed its ring. The session's
// Wait is unaffected: joiner outcomes live on the returned handle.
func (s *Session) Join(ctx context.Context, jc JoinConfig) (*JoinHandle, error) {
	if jc.Network == nil && jc.Engine == nil {
		return nil, fmt.Errorf("kascade: join needs a Network or an Engine")
	}
	if len(s.Nodes) == 0 {
		return nil, ErrSessionEnded
	}
	opts := s.Plan.Opts

	// Local resource admission first (accept/queue/refuse), so a joiner
	// the host cannot carry never perturbs the session.
	var ticket *Ticket
	if jc.Engine != nil {
		ticket = jc.Engine.AdmitClass(s.Plan.Session, opts.PoolReservation(), opts.Class)
		if _, err := ticket.Wait(ctx); err != nil {
			return nil, err
		}
	}
	fail := func(err error) (*JoinHandle, error) {
		if ticket != nil {
			ticket.Cancel()
		}
		return nil, err
	}

	// Resolve the joiner's address before the graft: it enters the
	// member table with the grant.
	peer := jc.Peer
	engine, private := jc.Engine, (*Engine)(nil)
	if engine == nil {
		e, err := NewSessionEngine(jc.Network, peer.Addr, opts)
		if err != nil {
			return fail(fmt.Errorf("kascade: binding joiner %s: %w", peer.Addr, err))
		}
		engine, private = e, e
	}
	peer.Addr = engine.Addr()
	cleanup := func(err error) (*JoinHandle, error) {
		if private != nil {
			private.Close()
		}
		return fail(err)
	}

	grant, err := s.Nodes[0].AdmitJoiner(peer)
	if err != nil {
		return cleanup(err)
	}

	plan := s.Plan
	plan.Peers = grant.Peers
	nc := NodeConfig{
		Index:   grant.Index,
		Plan:    plan,
		Join:    grant,
		Network: jc.Network,
		Engine:  engine,
		Sink:    jc.Sink,
		Trace:   jc.Trace,
	}
	n, err := NewNode(nc)
	if err != nil {
		return cleanup(err)
	}
	h := &JoinHandle{Node: n, Grant: grant, done: make(chan struct{})}
	go func() {
		defer close(h.done)
		if private != nil {
			defer private.Close()
		}
		h.rep, h.err = n.Run(ctx)
	}()
	return h, nil
}

// Wait blocks until every node finished and returns the aggregate result.
func (s *Session) Wait() (*SessionResult, error) {
	s.wg.Wait()
	for i, n := range s.Nodes {
		s.res.Received[i] = n.BytesReceived()
	}
	s.res.Report = s.sender.report
	if s.sender.err != nil {
		return s.res, fmt.Errorf("kascade: sender failed: %w", s.sender.err)
	}
	if s.sender.report == nil {
		return s.res, errors.New("kascade: sender produced no report")
	}
	return s.res, nil
}
