package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"kascade/internal/control"
	"kascade/internal/core"
	"kascade/internal/iolimit"
	"kascade/internal/transport"
)

// startTestAgent runs an in-process agent on loopback TCP and returns it
// with its control address.
func startTestAgent(t *testing.T, engineOpts core.EngineOptions, leaseTTL time.Duration) (*agent, string) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	engine, err := core.NewEngine(transport.TCP{}, "127.0.0.1:0", engineOpts)
	if err != nil {
		l.Close()
		t.Fatal(err)
	}
	a := newAgent(engine, "127.0.0.1", leaseTTL)
	go a.serve(l)
	t.Cleanup(func() { l.Close(); engine.Close() })
	return a, l.Addr().String()
}

// testProtoOptions are small, fast protocol options for loopback tests.
func testProtoOptions() core.Options {
	return core.Options{
		ChunkSize:         32 << 10,
		WindowChunks:      8,
		WriteStallTimeout: 500 * time.Millisecond,
		ReportTimeout:     5 * time.Second,
	}
}

// runSessionThrough drives one complete broadcast through an agent over an
// already-open control channel and checks that the agent's file sink at
// outPath holds the payload.
func runSessionThrough(ctx context.Context, client *control.Client, sid core.SessionID, payload []byte, outPath string) error {
	report, res, err := broadcastThrough(ctx, client, sid, payload, sinkSpec{Path: outPath})
	if err != nil {
		return err
	}
	if len(report.Failures) != 0 {
		return fmt.Errorf("failures: %v", report)
	}
	if res.Err != "" {
		return fmt.Errorf("agent result: %s", res.Err)
	}
	if res.Bytes != uint64(len(payload)) {
		return fmt.Errorf("agent ingested %d of %d bytes", res.Bytes, len(payload))
	}
	got, err := os.ReadFile(outPath)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, payload) {
		return fmt.Errorf("sink corrupted: %d of %d bytes", len(got), len(payload))
	}
	return nil
}

// broadcastThrough drives one broadcast through an agent over an
// already-open control channel: PREPARE (admission), START with the given
// sink, in-process sender node, RESULT. It returns the sender's report
// and the agent's result.
func broadcastThrough(ctx context.Context, client *control.Client, sid core.SessionID, payload []byte, out sinkSpec) (*core.Report, *control.ResultReply, error) {
	opts := testProtoOptions()
	rep, err := client.Prepare(ctx, control.PrepareRequest{Session: sid, Reservation: opts.PoolReservation()})
	if err != nil {
		return nil, nil, fmt.Errorf("prepare: %w", err)
	}

	rootEngine, err := core.NewSessionEngine(transport.TCP{}, "127.0.0.1:0", opts)
	if err != nil {
		return nil, nil, err
	}
	defer rootEngine.Close()
	peers := []core.Peer{
		{Name: "sender", Addr: rootEngine.Addr()},
		{Name: fmt.Sprintf("agent-%d", sid), Addr: rep.DataAddr},
	}
	pending, err := client.Start(control.StartRequest{
		Session: sid, Index: 1, Peers: peers, Opts: opts, Output: out,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("start: %w", err)
	}

	node, err := core.NewNode(core.NodeConfig{
		Index:     0,
		Plan:      core.Plan{Peers: peers, Opts: opts, Session: sid},
		Network:   transport.TCP{},
		Engine:    rootEngine,
		InputFile: bytes.NewReader(payload),
		InputSize: int64(len(payload)),
	})
	if err != nil {
		return nil, nil, err
	}
	report, err := node.Run(ctx)
	if err != nil {
		return nil, nil, fmt.Errorf("sender: %w", err)
	}
	res, err := pending.Wait(ctx)
	if err != nil {
		return nil, nil, fmt.Errorf("result: %w", err)
	}
	return report, res, nil
}

// TestControlMux16SessionsOneConnection is the multiplexing acceptance
// invariant: an agent serving 16 concurrent sessions from one sender holds
// exactly ONE control connection, with all PREPARE/START/RESULT exchanges
// interleaved on it, every payload bit-perfect.
func TestControlMux16SessionsOneConnection(t *testing.T) {
	const sessions = 16
	a, addr := startTestAgent(t, core.EngineOptions{}, 0)
	client, err := control.Dial(addr, 5*time.Second, control.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	errs := make([]error, sessions)
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		payload := make([]byte, (s+1)*64<<10+977*s+1)
		iolimit.NewPattern(int64(len(payload)), uint64(s+1)).Read(payload)
		wg.Add(1)
		go func(s int, payload []byte) {
			defer wg.Done()
			out := filepath.Join(dir, fmt.Sprintf("out-%d", s))
			errs[s] = runSessionThrough(ctx, client, core.SessionID(s+1), payload, out)
		}(s, payload)
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			t.Errorf("session %d: %v", s+1, err)
		}
	}

	if got := a.ctrlConnsTotal.Load(); got != 1 {
		t.Fatalf("agent accepted %d control connections for %d sessions, want exactly 1", got, sessions)
	}
	// Admission bookkeeping balanced out: every grant released.
	if st := a.engine.Stats(); st.Sessions != 0 || st.PoolReserved != 0 || st.Admitted != sessions {
		t.Fatalf("engine after %d sessions: %+v", sessions, st)
	}
}

// TestControlRejectsUnknownProtocol: a control connection that does not
// open with the frame magic, such as a JSON object, is closed unanswered.
func TestControlRejectsUnknownProtocol(t *testing.T) {
	_, addr := startTestAgent(t, core.EngineOptions{}, 0)
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(`{"op":"prepare"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read after a JSON opener: %d bytes, %v; want the connection closed", n, err)
	}
}

// gatedReaderAt serves the source payload freely below gate and blocks
// any read touching bytes at or past it until open is closed — a
// deterministic way to hold a broadcast mid-flight while a late joiner
// grafts on.
type gatedReaderAt struct {
	r    *bytes.Reader
	gate int64
	open chan struct{}
}

func (g *gatedReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if off+int64(len(p)) > g.gate {
		<-g.open
	}
	return g.r.ReadAt(p, off)
}

// TestControlJoinLiveBroadcast grafts a second agent onto a broadcast
// already running through a first agent: JOIN on the control channel,
// graft negotiation with the in-process sender, catch-up, and a
// bit-perfect sink on both the original receiver and the late joiner.
func TestControlJoinLiveBroadcast(t *testing.T) {
	opts := testProtoOptions()
	opts.Rerank = true
	opts.RerankInterval = 50 * time.Millisecond
	opts.RerankMinInterval = 100 * time.Millisecond
	const sid = core.SessionID(77)
	const topology = "tree:2"

	_, addrA := startTestAgent(t, core.EngineOptions{}, 0)
	_, addrB := startTestAgent(t, core.EngineOptions{}, 0)
	clientA, err := control.Dial(addrA, 5*time.Second, control.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer clientA.Close()
	clientB, err := control.Dial(addrB, 5*time.Second, control.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer clientB.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	payload := make([]byte, 2<<20)
	iolimit.NewPattern(int64(len(payload)), 77).Read(payload)
	dir := t.TempDir()
	outA := filepath.Join(dir, "receiver")
	outB := filepath.Join(dir, "joiner")

	rep, err := clientA.Prepare(ctx, control.PrepareRequest{Session: sid, Reservation: opts.PoolReservation()})
	if err != nil {
		t.Fatal(err)
	}
	rootEngine, err := core.NewSessionEngine(transport.TCP{}, "127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer rootEngine.Close()
	peers := []core.Peer{
		{Name: "sender", Addr: rootEngine.Addr()},
		{Name: "agent-a", Addr: rep.DataAddr},
	}
	pendingA, err := clientA.Start(control.StartRequest{
		Session: sid, Index: 1, Peers: peers, Opts: opts,
		Topology: topology, Output: sinkSpec{Path: outA},
	})
	if err != nil {
		t.Fatal(err)
	}

	gate := &gatedReaderAt{r: bytes.NewReader(payload), gate: 1 << 20, open: make(chan struct{})}
	node, err := core.NewNode(core.NodeConfig{
		Index:     0,
		Plan:      core.Plan{Peers: peers, Opts: opts, Session: sid, Topology: topology},
		Network:   transport.TCP{},
		Engine:    rootEngine,
		InputFile: gate,
		InputSize: int64(len(payload)),
	})
	if err != nil {
		t.Fatal(err)
	}
	senderDone := make(chan error, 1)
	go func() {
		report, err := node.Run(ctx)
		if err == nil && len(report.Failures) != 0 {
			err = fmt.Errorf("sender failures: %v", report)
		}
		senderDone <- err
	}()

	// The sender stalls at the gate; give the pipeline a beat to drain up
	// to it (and rate reports to flow) so the joiner has bytes to catch
	// up on, then graft through agent B.
	time.Sleep(300 * time.Millisecond)
	joined, pendingB, err := clientB.Join(ctx, control.JoinRequest{
		Session:    sid,
		SenderAddr: rootEngine.Addr(),
		Name:       "late",
		Output:     sinkSpec{Path: outB},
	})
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	if joined.Index != 2 || joined.Peers != 3 {
		t.Fatalf("joined as index %d of %d members, want 2 of 3", joined.Index, joined.Peers)
	}
	close(gate.open) // graft landed: let the rest of the payload flow

	if err := <-senderDone; err != nil {
		t.Fatal(err)
	}
	resA, err := pendingA.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if resA.Err != "" {
		t.Fatalf("receiver result: %s", resA.Err)
	}
	resB, err := pendingB.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if resB.Err != "" {
		t.Fatalf("joiner result: %s", resB.Err)
	}
	for name, path := range map[string]string{"receiver": outA, "joiner": outB} {
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("%s sink corrupted: %d of %d bytes", name, len(got), len(payload))
		}
	}
}

// TestControlJoinDeadSessionRefused: a JOIN naming a session nobody is
// broadcasting fails with a typed error, not a hang.
func TestControlJoinDeadSessionRefused(t *testing.T) {
	_, addr := startTestAgent(t, core.EngineOptions{}, 0)
	client, err := control.Dial(addr, 5*time.Second, control.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// A listener that accepts and immediately hangs up stands in for a
	// sender whose broadcast is long gone.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			conn.Close()
		}
	}()

	_, _, err = client.Join(ctx, control.JoinRequest{
		Session:    99,
		SenderAddr: l.Addr().String(),
		Name:       "late",
	})
	if err == nil {
		t.Fatal("join of a dead session succeeded")
	}
}

// TestControlJoinMemberAgentRefused: an agent that already carries the
// session as a member refuses to also host a joiner for it, with the
// typed refusal — before any dial toward the sender happens.
func TestControlJoinMemberAgentRefused(t *testing.T) {
	_, addr := startTestAgent(t, core.EngineOptions{}, 0)
	client, err := control.Dial(addr, 5*time.Second, control.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	const sid = core.SessionID(55)
	opts := testProtoOptions()
	if _, err := client.Prepare(ctx, control.PrepareRequest{Session: sid, Reservation: opts.PoolReservation()}); err != nil {
		t.Fatal(err)
	}

	// The joiner arrives on its own control connection (as `kascade join`
	// does); the channel-scoped duplicate-session check must not be what
	// fires. SenderAddr is deliberately unroutable: the refusal must come
	// from the agent's membership check, not from a failed dial.
	joiner, err := control.Dial(addr, 5*time.Second, control.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer joiner.Close()
	_, _, err = joiner.Join(ctx, control.JoinRequest{
		Session:    sid,
		SenderAddr: "127.0.0.1:1",
		Name:       "late",
	})
	var jr *core.JoinRefusedError
	if !errors.As(err, &jr) {
		t.Fatalf("join through a member agent: got %v, want *core.JoinRefusedError", err)
	}
	if !strings.Contains(jr.Reason, "already serves") {
		t.Fatalf("refusal reason %q does not name the member conflict", jr.Reason)
	}
}

// TestControlAdmissionRefusalBeforeDataDial: an overload refusal arrives
// as the typed *core.AdmissionError from PREPARE — before the sender has
// dialed (or even learned) any data address.
func TestControlAdmissionRefusalBeforeDataDial(t *testing.T) {
	_, addr := startTestAgent(t, core.EngineOptions{MemBudget: 64 << 10}, 0)
	client, err := control.Dial(addr, 5*time.Second, control.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	_, err = client.Prepare(ctx, control.PrepareRequest{Session: 1, Reservation: 1 << 20})
	var adErr *core.AdmissionError
	if !errors.As(err, &adErr) {
		t.Fatalf("prepare error %v, want typed *core.AdmissionError", err)
	}
	if adErr.Session != 1 {
		t.Fatalf("refusal names session %d, want 1", adErr.Session)
	}
}

// TestControlAdmissionQueuedUntilRelease: a session that does not fit
// queues at PREPARE and is admitted the moment the blocking session is
// released; the queued broadcast then runs to completion.
func TestControlAdmissionQueuedUntilRelease(t *testing.T) {
	opts := testProtoOptions()
	reservation := opts.PoolReservation()
	_, addr := startTestAgent(t, core.EngineOptions{
		MemBudget:         reservation + reservation/2, // room for one session only
		AdmitQueueTimeout: 30 * time.Second,
	}, 0)
	client, err := control.Dial(addr, 5*time.Second, control.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Session 1 holds the budget (prepared, never started).
	if _, err := client.Prepare(ctx, control.PrepareRequest{Session: 1, Reservation: reservation}); err != nil {
		t.Fatal(err)
	}

	// Session 2 queues...
	payload := make([]byte, 200<<10)
	iolimit.NewPattern(int64(len(payload)), 7).Read(payload)
	out := filepath.Join(t.TempDir(), "queued-out")
	done := make(chan error, 1)
	go func() { done <- runSessionThrough(ctx, client, 2, payload, out) }()

	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := client.Status(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.Engine.AdmitQueue == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("session 2 never queued: %+v", st.Engine)
		}
		time.Sleep(5 * time.Millisecond)
	}
	select {
	case err := <-done:
		t.Fatalf("queued session resolved early: %v", err)
	default:
	}

	// ...until session 1 is released.
	if known, err := client.Release(ctx, 1); err != nil || !known {
		t.Fatalf("release: known=%v err=%v", known, err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("queued session after release: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("queued session never completed after release")
	}
}
