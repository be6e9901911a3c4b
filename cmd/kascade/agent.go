package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"sync/atomic"
	"time"

	"kascade/internal/control"
	"kascade/internal/core"
	"kascade/internal/transport"
)

// The control plane between the sender and its agents is the framed,
// request-ID-multiplexed protocol of internal/control: exactly one
// long-lived control connection per sender↔agent pair, carrying
// interleaved PREPARE/START/STATUS/RELEASE frames for any number of
// concurrent broadcast sessions, with per-session liveness provided by
// HEARTBEAT leases instead of per-session connections.
//
// Every PREPARE runs engine admission before the sender dials a single
// data connection: the reservation is accepted (and debited), queued
// until budget frees on a session end, or refused with a typed error the
// sender can match on.
//
// Legacy v1 dialers — one JSON blob per message, one connection per
// session, connection-open as the liveness signal — are detected by their
// first byte ('{' versus the frame magic) and served unchanged on the
// same port.
//
// One agent process carries any number of concurrent sessions: a single
// core.Engine owns the one advertised data port, routes inbound
// connections by the session ID in their HELLO, and accounts every
// session's chunk pool against a global memory budget. v1 senders all
// share the default session 0, so a v1 sender is limited to one broadcast
// at a time per agent (the engine refuses a second session-0 registration
// with a descriptive error).

// sinkSpec is the v1 JSON name for the control sink description; the
// framed protocol carries the identical shape.
type sinkSpec = control.SinkSpec

// ctrlRequest is one legacy v1 control message (sender → agent).
type ctrlRequest struct {
	Op      string         `json:"op"` // "prepare" | "start"
	Index   int            `json:"index,omitempty"`
	Session core.SessionID `json:"session,omitempty"`
	Peers   []core.Peer    `json:"peers,omitempty"`
	Opts    core.Options   `json:"opts,omitempty"`
	Output  sinkSpec       `json:"output,omitempty"`
}

// ctrlResponse is one legacy v1 control message (agent → sender).
type ctrlResponse struct {
	Op       string       `json:"op"` // "prepared" | "result"
	DataAddr string       `json:"data_addr,omitempty"`
	Err      string       `json:"err,omitempty"`
	Report   *core.Report `json:"report,omitempty"`
	Bytes    uint64       `json:"bytes,omitempty"`
}

// agent is one agent process's serving state: the shared data-plane
// engine and the control server in front of it.
type agent struct {
	engine    *core.Engine
	advertise string
	srv       *control.Server

	// ctrlConns counts control connections currently open, v1 and framed
	// alike — the multiplexing invariant (one per sender, however many
	// sessions) is asserted on it in tests.
	ctrlConns atomic.Int64
	// ctrlConnsTotal counts control connections ever accepted.
	ctrlConnsTotal atomic.Int64
}

// newAgent builds the serving state around an engine. leaseTTL <= 0
// selects the control server's default.
func newAgent(engine *core.Engine, advertise string, leaseTTL time.Duration) *agent {
	a := &agent{engine: engine, advertise: advertise}
	a.srv = &control.Server{
		Engine:   engine,
		DataAddr: func(conn net.Conn) string { return advertiseAddr(engine.Addr(), conn, advertise) },
		Run:      a.runSession,
		Join:     a.joinSession,
		LeaseTTL: leaseTTL,
	}
	return a
}

// serve accepts control connections until the listener closes.
func (a *agent) serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go func() {
			a.ctrlConns.Add(1)
			a.ctrlConnsTotal.Add(1)
			defer a.ctrlConns.Add(-1)
			defer conn.Close()
			if err := a.serveConn(conn); err != nil {
				fmt.Fprintf(os.Stderr, "kascade agent: control: %v\n", err)
			}
		}()
	}
}

// serveConn sniffs the first byte of a fresh control connection: the
// frame magic selects the multiplexed protocol, '{' a legacy v1 dialer.
func (a *agent) serveConn(conn net.Conn) error {
	br := bufio.NewReader(conn)
	first, err := br.Peek(1)
	if err != nil {
		return nil // dialer went away before speaking
	}
	switch first[0] {
	case control.Magic:
		return a.srv.ServeConn(conn, br)
	case '{':
		return a.serveV1(conn, br)
	default:
		return fmt.Errorf("unknown control protocol (first byte 0x%02x)", first[0])
	}
}

// runSession executes one framed-control session to completion: realise
// the sink, attach a node to the shared engine, run it. ctx is cancelled
// by lease expiry, RELEASE, or the control channel dropping.
func (a *agent) runSession(ctx context.Context, req control.StartRequest) control.ResultReply {
	sink, closeSink, err := openSink(req.Output, req.Opts.ChunkSize)
	if err != nil {
		return control.ResultReply{Err: err.Error()}
	}
	node, err := core.NewNode(core.NodeConfig{
		Index:   req.Index,
		Plan:    core.Plan{Peers: req.Peers, Opts: req.Opts, Session: req.Session, Topology: req.Topology},
		Network: transport.TCP{},
		Engine:  a.engine,
		Sink:    sink,
	})
	if err != nil {
		closeSink()
		return control.ResultReply{Err: err.Error()}
	}
	report, runErr := node.Run(ctx)
	closeSink()
	resp := control.ResultReply{Report: report, Bytes: node.BytesReceived()}
	if runErr != nil {
		resp.Err = runErr.Error()
	}
	return resp
}

// joinSession grafts this agent onto a live broadcast as a late joiner:
// negotiate the graft with the session's sender (node 0), run engine
// admission between the two wire phases, then run the joiner node to
// completion. grafted fires once the graft has landed, before the node
// runs, so the control server can send the interim JOINED reply.
func (a *agent) joinSession(ctx context.Context, req control.JoinRequest, grafted func(control.JoinedReply)) (control.ResultReply, error) {
	if req.Session == 0 {
		return control.ResultReply{}, core.ErrJoinRefused("late join needs a real session ID (v1 session 0 cannot be joined)")
	}
	// An agent that is already a member cannot also host the joiner: the
	// engine routes data connections by session ID, so a second node of
	// the same session would be unreachable. Refuse up front with a
	// better message than the admission machinery's duplicate-session
	// error.
	if a.engine.Serves(req.Session) {
		return control.ResultReply{}, core.ErrJoinRefused(fmt.Sprintf(
			"this agent already serves session %d as a member; join through an agent that is not part of the broadcast", req.Session))
	}
	name := req.Name
	if name == "" {
		name, _ = os.Hostname()
	}
	peer := core.Peer{
		Name: name,
		Addr: advertiseAddr(a.engine.Addr(), nil, a.advertise),
	}
	// Engine admission and the sink both wait for JOININFO, which is
	// where the sender tells us the session's options (hence its memory
	// reservation and chunk size), and both come before JOINGO: the
	// sender has not yet mutated its membership, so a refusal here
	// leaves the live broadcast untouched.
	var ticket *core.Ticket
	var info *core.JoinSessionInfo
	var sink io.Writer
	closeSink := func() {}
	admit := func(i *core.JoinSessionInfo) error {
		info = i
		ticket = a.engine.AdmitClass(req.Session, i.Opts.PoolReservation(), i.Opts.Class)
		if _, err := ticket.Wait(ctx); err != nil {
			return err
		}
		w, closeW, err := openSink(req.Output, i.Opts.ChunkSize)
		if err != nil {
			return core.ErrJoinRefused(err.Error())
		}
		sink, closeSink = w, closeW
		return nil
	}
	grant, _, err := core.NegotiateJoin(transport.TCP{}, req.SenderAddr, req.Session, nil, peer, admit)
	if err != nil {
		if ticket != nil {
			ticket.Cancel()
		}
		closeSink()
		return control.ResultReply{}, err
	}
	node, err := core.NewNode(core.NodeConfig{
		Index:   grant.Index,
		Plan:    core.Plan{Peers: grant.Peers, Opts: info.Opts, Session: req.Session, Topology: info.Topology},
		Join:    grant,
		Network: transport.TCP{},
		Engine:  a.engine,
		Sink:    sink,
	})
	if err != nil {
		ticket.Cancel()
		closeSink()
		return control.ResultReply{}, err
	}
	grafted(control.JoinedReply{Index: grant.Index, Head: grant.Head, Peers: len(grant.Peers)})
	report, runErr := node.Run(ctx)
	closeSink()
	resp := control.ResultReply{Report: report, Bytes: node.BytesReceived()}
	if runErr != nil {
		resp.Err = runErr.Error()
	}
	return resp, nil
}

// serveV1 handles one legacy prepare/start exchange — one session per
// connection, liveness by connection-open — exactly as pre-framing
// senders expect.
func (a *agent) serveV1(conn net.Conn, br *bufio.Reader) error {
	dec := json.NewDecoder(br)
	enc := json.NewEncoder(conn)

	var req ctrlRequest
	if err := dec.Decode(&req); err != nil {
		return err
	}
	if req.Op != "prepare" {
		return fmt.Errorf("expected prepare, got %q", req.Op)
	}
	dataAddr := advertiseAddr(a.engine.Addr(), conn, a.advertise)
	if err := enc.Encode(ctrlResponse{Op: "prepared", DataAddr: dataAddr}); err != nil {
		return err
	}

	if err := dec.Decode(&req); err != nil {
		return err
	}
	if req.Op != "start" {
		return fmt.Errorf("expected start, got %q", req.Op)
	}
	res := a.runSession(context.Background(), control.StartRequest{
		Session: req.Session,
		Index:   req.Index,
		Peers:   req.Peers,
		Opts:    req.Opts,
		Output:  req.Output,
	})
	return enc.Encode(ctrlResponse{Op: "result", Err: res.Err, Report: res.Report, Bytes: res.Bytes})
}

// runAgent serves broadcast sessions forever on the control address. All
// sessions share the engine's single data port.
func runAgent(listen, dataListen, advertise string) error {
	l, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	defer l.Close()
	engine, err := core.NewEngine(transport.TCP{}, dataListen, core.EngineOptions{})
	if err != nil {
		return err
	}
	defer engine.Close()
	a := newAgent(engine, advertise, 0)
	fmt.Fprintf(os.Stderr, "kascade agent: control on %s, data on %s\n", l.Addr(), engine.Addr())
	return a.serve(l)
}

// advertiseAddr rewrites the bound address with the advertised host (or,
// absent one, the interface the control connection arrived on).
func advertiseAddr(bound string, conn net.Conn, advertise string) string {
	_, port, err := net.SplitHostPort(bound)
	if err != nil {
		return bound
	}
	host := advertise
	if host == "" && conn != nil {
		if h, _, err := net.SplitHostPort(conn.LocalAddr().String()); err == nil {
			host = h
		}
	}
	if host == "" || host == "0.0.0.0" || host == "::" {
		return bound
	}
	return net.JoinHostPort(host, port)
}

// maxSinkPipe caps the sink pipe's capacity at the kernel's default
// /proc/sys/fs/pipe-max-size, the most an unprivileged process may ask for.
const maxSinkPipe = 1 << 20

// openSink realises a sink spec for a session with the given chunk size
// (0 selects core.DefaultChunkSize). The returned closer flushes files and
// waits for piped commands. A command's stdin pipe is sized to hold one
// whole chunk (up to maxSinkPipe), so delivering a chunk costs one write
// and one wake-up of the command rather than one per 64 KiB of the
// kernel's default pipe. The pipe is a core.PipeSink: on Linux the node
// moves chunks into it from its upstream socket without copying them.
func openSink(spec sinkSpec, chunkSize int) (io.Writer, func(), error) {
	switch {
	case spec.Path != "" && spec.Command != "":
		return nil, nil, fmt.Errorf("kascade: -o and -O are mutually exclusive")
	case spec.Path != "":
		f, err := os.Create(spec.Path)
		if err != nil {
			return nil, nil, err
		}
		return f, func() { f.Close() }, nil
	case spec.Command != "":
		if chunkSize <= 0 {
			chunkSize = core.DefaultChunkSize
		}
		pr, pw, err := os.Pipe()
		if err != nil {
			return nil, nil, err
		}
		setPipeSize(pw, min(chunkSize, maxSinkPipe))
		cmd := exec.Command("sh", "-c", spec.Command)
		cmd.Stdin = pr
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		err = cmd.Start()
		pr.Close() // the command holds its own copy
		if err != nil {
			pw.Close()
			return nil, nil, err
		}
		return pw, func() {
			pw.Close()
			_ = cmd.Wait()
		}, nil
	default:
		return io.Discard, func() {}, nil
	}
}
