package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"kascade/internal/transport"
)

// --- live late-join, end to end -------------------------------------------

// TestSessionLateJoin runs a rerank-enabled tree broadcast over throttled
// links, grafts a ninth peer in mid-flight via Session.Join, and checks
// the joiner ends with the bit-perfect payload (catch-up backfill plus
// live stream, serialized in order) while the original session is
// untouched.
func TestSessionLateJoin(t *testing.T) {
	const (
		n    = 8
		k    = 2
		size = 1 << 20
	)
	fabric := transport.NewFabric(1 << 22)
	peers := make([]Peer, n)
	sinks := make([]*collectSink, n)
	for i := range peers {
		peers[i] = Peer{Name: fmt.Sprintf("n%d", i), Addr: fmt.Sprintf("n%d:7000", i)}
		sinks[i] = &collectSink{}
	}
	// Throttle the sender's links so the broadcast lasts long enough to
	// join mid-flight (~0.5 s for 1 MiB at 2 MiB/s per link).
	for i := 1; i < n; i++ {
		fabric.SetLinkProfile("n0", fmt.Sprintf("n%d", i), transport.Profile{Rate: 2 << 20})
	}
	payload := testPayload(size, 0x10ad)

	// Fire the join once some receiver passed an eighth of the payload.
	joinC := make(chan struct{})
	var once sync.Once
	trace := func(ev TraceEvent) {
		if ev.Kind == TraceChunk && ev.Node != 0 && ev.Offset >= size/8 {
			once.Do(func() { close(joinC) })
		}
	}

	sess, err := StartSession(context.Background(), SessionConfig{
		Peers:      peers,
		Opts:       rerankOpts(),
		Topology:   TopologyTree(k),
		NetworkFor: func(i int) transport.Network { return fabric.Host(peers[i].Name) },
		SinkFor:    func(i int) io.Writer { return sinks[i] },
		InputFile:  bytes.NewReader(payload),
		InputSize:  int64(size),
		Trace:      trace,
	})
	if err != nil {
		t.Fatalf("StartSession: %v", err)
	}
	<-joinC

	joinSink := &collectSink{}
	h, err := sess.Join(context.Background(), JoinConfig{
		Peer:    Peer{Name: "j1", Addr: "j1:7000"},
		Network: fabric.Host("j1"),
		Sink:    joinSink,
	})
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	if h.Grant.Index != n {
		t.Fatalf("joiner index = %d, want %d", h.Grant.Index, n)
	}
	if h.Grant.BasePeers != n {
		t.Fatalf("grant base plan size = %d, want %d", h.Grant.BasePeers, n)
	}

	if _, err := h.Wait(); err != nil {
		t.Fatalf("joiner: %v", err)
	}
	res, err := sess.Wait()
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	if res.Report.TotalBytes != uint64(size) {
		t.Fatalf("TotalBytes = %d, want %d", res.Report.TotalBytes, size)
	}
	if len(res.Report.Failures) != 0 {
		t.Fatalf("unexpected failures: %v", res.Report.Failures)
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(sinks[i].Bytes(), payload) {
			t.Fatalf("node %d payload mismatch: got %d bytes", i, len(sinks[i].Bytes()))
		}
	}
	if !bytes.Equal(joinSink.Bytes(), payload) {
		t.Fatalf("joiner payload mismatch: got %d bytes, want %d", len(joinSink.Bytes()), size)
	}
}

// TestJoinRefusedWithoutRerank checks the typed refusal when the session
// cannot graft anyone (chain topology, no planner).
func TestJoinRefusedWithoutRerank(t *testing.T) {
	fabric := transport.NewFabric(1 << 20)
	peers := []Peer{
		{Name: "n0", Addr: "n0:7000"},
		{Name: "n1", Addr: "n1:7000"},
	}
	payload := testPayload(64<<10, 0x77)
	sess, err := StartSession(context.Background(), SessionConfig{
		Peers:      peers,
		Opts:       Options{ChunkSize: 8 << 10, WindowChunks: 4},
		NetworkFor: func(i int) transport.Network { return fabric.Host(peers[i].Name) },
		InputFile:  bytes.NewReader(payload),
		InputSize:  int64(len(payload)),
	})
	if err != nil {
		t.Fatalf("StartSession: %v", err)
	}
	_, jerr := sess.Join(context.Background(), JoinConfig{
		Peer:    Peer{Name: "j1", Addr: "j1:7000"},
		Network: fabric.Host("j1"),
	})
	var refused *JoinRefusedError
	if !errors.As(jerr, &refused) {
		t.Fatalf("Join on a chain session = %v, want *JoinRefusedError", jerr)
	}
	if _, err := sess.Wait(); err != nil {
		t.Fatalf("session: %v", err)
	}
}

// TestJoinAfterSessionEnded checks that joining a finished broadcast
// fails with ErrSessionEnded.
func TestJoinAfterSessionEnded(t *testing.T) {
	res, _, _, _, _, _ := runRerankSession(t, 4, 2, 128<<10, nil)
	_ = res
	// A fresh session that is immediately completed, then joined.
	fabric := transport.NewFabric(1 << 20)
	peers := make([]Peer, 4)
	for i := range peers {
		peers[i] = Peer{Name: fmt.Sprintf("n%d", i), Addr: fmt.Sprintf("n%d:7000", i)}
	}
	payload := testPayload(64<<10, 0x88)
	sess, err := StartSession(context.Background(), SessionConfig{
		Peers:      peers,
		Opts:       rerankOpts(),
		Topology:   TopologyTree(2),
		NetworkFor: func(i int) transport.Network { return fabric.Host(peers[i].Name) },
		InputFile:  bytes.NewReader(payload),
		InputSize:  int64(len(payload)),
	})
	if err != nil {
		t.Fatalf("StartSession: %v", err)
	}
	if _, err := sess.Wait(); err != nil {
		t.Fatalf("session: %v", err)
	}
	_, jerr := sess.Join(context.Background(), JoinConfig{
		Peer:    Peer{Name: "j1", Addr: "j1:7000"},
		Network: fabric.Host("j1"),
	})
	if !errors.Is(jerr, ErrSessionEnded) {
		t.Fatalf("Join after end = %v, want ErrSessionEnded", jerr)
	}
}

// --- typed errors and the control-plane code bridge -----------------------

func TestMembershipErrorCodes(t *testing.T) {
	cases := []struct {
		err  error
		code string
	}{
		{ErrSessionEnded, "session-ended"},
		{ErrJoinRefused("no room"), "join-refused"},
		{ErrCatchUpEvicted, "catch-up-evicted"},
		{fmt.Errorf("wrapped: %w", ErrSessionEnded), "session-ended"},
		{errors.New("unrelated"), ""},
	}
	for _, c := range cases {
		if got := MembershipErrorCode(c.err); got != c.code {
			t.Fatalf("MembershipErrorCode(%v) = %q, want %q", c.err, got, c.code)
		}
	}
	// Round trip: code → typed error → same code. No string matching.
	for _, code := range []string{"session-ended", "join-refused", "catch-up-evicted"} {
		err, ok := MembershipErrorFromCode(code, "detail")
		if !ok {
			t.Fatalf("MembershipErrorFromCode(%q) not recognized", code)
		}
		if got := MembershipErrorCode(err); got != code {
			t.Fatalf("round trip of %q came back as %q", code, got)
		}
	}
	if _, ok := MembershipErrorFromCode("admission-refused", ""); ok {
		t.Fatalf("non-membership code must not map to a membership error")
	}
	var refused *JoinRefusedError
	err, _ := MembershipErrorFromCode("join-refused", "busy")
	if !errors.As(err, &refused) || refused.Reason != "busy" {
		t.Fatalf("join-refused code did not rebuild *JoinRefusedError: %v", err)
	}
}

// --- catch-up spill buffer -------------------------------------------------

// TestJoinStateSpill drives the backlog over its memory budget and checks
// the spill engages, order is preserved across the memory/disk seam, and
// every pooled buffer goes back through the recycling seam.
func TestJoinStateSpill(t *testing.T) {
	const (
		chunk  = 8
		head   = 4 * chunk
		budget = 2 * chunk // two chunks in memory, then spill
	)
	sink := &collectSink{}
	js := newJoinState(sink, head, budget, chunk)
	var gets, puts int
	js.getBuf = func(n int) []byte { gets++; return make([]byte, n) }
	js.putBuf = func(b []byte) { puts++ }

	mk := func(b byte) []byte { return bytes.Repeat([]byte{b}, chunk) }
	// Live chunks A..D arrive while the backfill is still running: A and
	// B fit the budget, C forces the spill, D must follow it to disk even
	// though the memory budget has room again conceptually.
	for _, b := range []byte{'A', 'B', 'C', 'D'} {
		if err := js.live(mk(b)); err != nil {
			t.Fatalf("live(%c): %v", b, err)
		}
	}
	js.mu.Lock()
	memChunks, spilled := len(js.mem), js.spillW
	js.mu.Unlock()
	if memChunks != 2 {
		t.Fatalf("backlog holds %d chunks in memory, want 2", memChunks)
	}
	if spilled != 2*chunk {
		t.Fatalf("spill holds %d bytes, want %d", spilled, 2*chunk)
	}
	if gets != 2 {
		t.Fatalf("backlog took %d pooled buffers, want 2", gets)
	}

	// Backfill [0, head) in order, then drain.
	for i := 0; i < head/chunk; i++ {
		if err := js.backfill(mk('0' + byte(i))); err != nil {
			t.Fatalf("backfill %d: %v", i, err)
		}
	}
	if err := js.finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
	if puts != gets {
		t.Fatalf("%d of %d pooled buffers returned to the arena", puts, gets)
	}

	want := append([]byte{}, mk('0')...)
	for i, b := range []byte{'1', '2', '3', 'A', 'B', 'C', 'D'} {
		_ = i
		want = append(want, mk(b)...)
	}
	if !bytes.Equal(sink.Bytes(), want) {
		t.Fatalf("sink got %q, want %q", sink.Bytes(), want)
	}

	// Write-through after parity.
	if err := js.live(mk('E')); err != nil {
		t.Fatalf("live after parity: %v", err)
	}
	if got := sink.Bytes(); !bytes.Equal(got[len(got)-chunk:], mk('E')) {
		t.Fatalf("post-parity chunk did not write through")
	}
	select {
	case <-js.done:
	default:
		t.Fatalf("done not closed after finish")
	}
}

// TestJoinStateFailReleasesBacklog checks fail() returns the in-memory
// backlog to the arena and closes the spill.
func TestJoinStateFailReleasesBacklog(t *testing.T) {
	js := newJoinState(&collectSink{}, 64, 1024, 8)
	var puts int
	js.putBuf = func(b []byte) { puts++ }
	for i := 0; i < 3; i++ {
		if err := js.live(bytes.Repeat([]byte{byte(i)}, 8)); err != nil {
			t.Fatalf("live: %v", err)
		}
	}
	js.fail(errors.New("boom"))
	if puts != 3 {
		t.Fatalf("fail returned %d buffers, want 3", puts)
	}
	if err := js.live([]byte{1}); err == nil {
		t.Fatalf("live after fail must report the recorded error")
	}
	if js.failure() == nil {
		t.Fatalf("failure() lost the recorded error")
	}
}

// --- range catch-up against a scripted source ------------------------------

// joinTestNode builds an unstarted joiner node whose plan points at addr
// as node 0, prepared far enough to run the catch-up machinery directly.
func joinTestNode(t *testing.T, fab *transport.Fabric, srvAddr string, head uint64, sink io.Writer) *Node {
	t.Helper()
	peers := []Peer{
		{Name: "srv", Addr: srvAddr},
		{Name: "x", Addr: "x:7000"},
		{Name: "j", Addr: "j:7000"},
	}
	opts := Options{ChunkSize: 1024, WindowChunks: 2, Rerank: true, DialRetries: 2}
	grant := &JoinGrant{
		Index:     2,
		Peers:     peers,
		BasePeers: 2,
		Head:      head,
		Version:   1,
		Occupants: []int32{0, 1, 2},
	}
	n, err := NewNode(NodeConfig{
		Index: 2,
		Plan: Plan{
			Peers:    peers,
			Opts:     opts,
			Topology: TopologyTree(2),
		},
		Join:    grant,
		Network: fab.Host("j"),
		Engine:  testEngine(t, fab.Host("j"), "j:7000", opts),
		Sink:    sink,
	})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	n.ictx, n.cancel = context.WithCancel(context.Background())
	t.Cleanup(n.cancel)
	if err := n.prepare(); err != nil {
		t.Fatalf("prepare: %v", err)
	}
	return n
}

// serveCatchUpSource answers RoleFetch PGETs from payload; decide(conn)
// returns a FORGET base to reply with instead of data (0 serves data).
func serveCatchUpSource(t *testing.T, lst transport.Listener, payload []byte, chunk int, decide func(conn int) uint64) {
	t.Helper()
	go func() {
		for connNo := 0; ; connNo++ {
			c, err := lst.Accept()
			if err != nil {
				return
			}
			w := newWire(c, SystemClock())
			if _, _, _, err := w.readHello(); err != nil {
				_ = w.close()
				continue
			}
			typ, err := w.readType()
			if err != nil || typ != MsgPGet {
				_ = w.close()
				continue
			}
			lo, hi, err := w.readPGet()
			if err != nil {
				_ = w.close()
				continue
			}
			if base := decide(connNo); base > 0 {
				_ = w.writeForget(base)
				_ = w.close()
				continue
			}
			for off := lo; off < hi; {
				end := off + uint64(chunk)
				if end > hi {
					end = hi
				}
				if err := w.writeData(payload[off:end]); err != nil {
					break
				}
				off = end
			}
			_ = w.writeEnd(hi)
			_ = w.close()
		}
	}()
}

// TestCatchUpForgetRefetch scripts one FORGET and checks the catch-up
// redials and refetches the same window instead of dying: the FORGET →
// refetch path the spill satellite requires.
func TestCatchUpForgetRefetch(t *testing.T) {
	const (
		chunk = 1024
		head  = 4 * chunk
	)
	fab := transport.NewFabric(1 << 20)
	srvLst, err := fab.Host("srv").Listen("srv:7000")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer srvLst.Close()
	payload := testPayload(head, 0x3c)
	serveCatchUpSource(t, srvLst, payload, chunk, func(conn int) uint64 {
		if conn == 0 {
			return chunk // pretend the window moved; the range is still there on retry
		}
		return 0
	})

	sink := &collectSink{}
	n := joinTestNode(t, fab, "srv:7000", head, sink)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := n.catchUp(ctx); err != nil {
		t.Fatalf("catchUp: %v", err)
	}
	if err := n.joinSt.finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
	if !bytes.Equal(sink.Bytes(), payload) {
		t.Fatalf("catch-up sink mismatch: got %d bytes, want %d", len(sink.Bytes()), head)
	}
}

// TestCatchUpEvicted scripts persistent FORGETs: two consecutive refusals
// with no progress must surface the typed ErrCatchUpEvicted.
func TestCatchUpEvicted(t *testing.T) {
	const (
		chunk = 1024
		head  = 4 * chunk
	)
	fab := transport.NewFabric(1 << 20)
	srvLst, err := fab.Host("srv").Listen("srv:7000")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer srvLst.Close()
	payload := testPayload(head, 0x3d)
	serveCatchUpSource(t, srvLst, payload, chunk, func(conn int) uint64 {
		return 2 * chunk // the range below is gone, every time
	})

	n := joinTestNode(t, fab, "srv:7000", head, &collectSink{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err = n.catchUp(ctx)
	if !errors.Is(err, ErrCatchUpEvicted) {
		t.Fatalf("catchUp with persistent FORGET = %v, want ErrCatchUpEvicted", err)
	}
}

// --- wire compatibility ----------------------------------------------------

// TestWireCompatPinnedValues pins every frame-type and role constant to
// its wire value: the JOIN/REORG2 additions must only ever append, and a
// retired frame keeps its value unused. A failure here is a protocol break
// for pre-JOIN peers.
func TestWireCompatPinnedValues(t *testing.T) {
	msgs := map[MsgType]byte{
		MsgGet: 2, MsgPGet: 3, MsgForget: 4, MsgData: 5,
		MsgEnd: 6, MsgQuit: 7, MsgReport: 8, MsgPassed: 9, MsgPing: 10,
		MsgPong: 11, MsgHello2: 12, MsgRate: 14,
		MsgReorg2: 15, MsgJoin: 16, MsgJoinInfo: 17, MsgJoinGo: 18, MsgJoinOK: 19,
	}
	for m, v := range msgs {
		if byte(m) != v {
			t.Fatalf("%v = %d, want pinned wire value %d", m, byte(m), v)
		}
	}
	// Retired values stay unused and their frames are protocol errors: 13
	// was REORG v1, replaced by REORG2 with an empty member table. The body
	// is a well-formed v1 view (version 1, no slots) that must not parse.
	for _, retired := range []MsgType{13} {
		w := newWire(readerConn{bytes.NewReader([]byte{0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0})}, SystemClock())
		var pe *errProtocol
		if _, err := (&Node{}).readViewFrame(w, retired); !errors.As(err, &pe) {
			t.Fatalf("view frame of retired type %d: %v, want a protocol error", byte(retired), err)
		}
	}
	// 1 was HELLO v1, which carried no session ID. A well-formed v1 HELLO
	// (data role, node 3) must not open a connection.
	w := newWire(readerConn{bytes.NewReader([]byte{1, 1, 0, 0, 0, 3})}, SystemClock())
	var pe *errProtocol
	if _, _, _, err := w.readHello(); !errors.As(err, &pe) {
		t.Fatalf("HELLO of retired type 1: %v, want a protocol error", err)
	}
	roles := map[Role]byte{
		RoleData: 1, RolePing: 2, RoleFetch: 3, RoleReport: 4, RoleRate: 5, RoleJoin: 6,
	}
	for r, v := range roles {
		if byte(r) != v {
			t.Fatalf("%v = %d, want pinned wire value %d", r, byte(r), v)
		}
	}
}

// pipeConn is an in-memory one-way capture of what a dialer writes.
type captureConn struct {
	bytes.Buffer
}

func (c *captureConn) Read(p []byte) (int, error)       { return 0, io.EOF }
func (c *captureConn) Close() error                     { return nil }
func (c *captureConn) SetDeadline(time.Time) error      { return nil }
func (c *captureConn) SetReadDeadline(time.Time) error  { return nil }
func (c *captureConn) SetWriteDeadline(time.Time) error { return nil }
func (c *captureConn) LocalAddr() string                { return "cap:0" }
func (c *captureConn) RemoteAddr() string               { return "cap:1" }

// TestHelloGoldenBytes pins the exact HELLO2 encoding, the unnamed
// session 0 included: a pre-JOIN agent must keep parsing post-JOIN
// dialers unchanged.
func TestHelloGoldenBytes(t *testing.T) {
	var c captureConn
	w := newWire(&c, SystemClock())
	if err := w.writeHello(RoleData, 3, 0); err != nil {
		t.Fatalf("writeHello session 0: %v", err)
	}
	unnamed := []byte{12 /*HELLO2*/, 1 /*data*/, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0}
	if !bytes.Equal(c.Bytes(), unnamed) {
		t.Fatalf("session-0 HELLO = %x, want %x", c.Bytes(), unnamed)
	}
	c.Reset()
	if err := w.writeHello(RoleFetch, 2, 0x0102030405060708); err != nil {
		t.Fatalf("writeHello: %v", err)
	}
	named := []byte{12 /*HELLO2*/, 3 /*fetch*/, 0, 0, 0, 2, 1, 2, 3, 4, 5, 6, 7, 8}
	if !bytes.Equal(c.Bytes(), named) {
		t.Fatalf("HELLO = %x, want %x", c.Bytes(), named)
	}
}

// TestHelloDialerMatrix proves HELLO2 round-trips through the accept path
// for every role including JOIN, and for the unnamed session 0 as for a
// named one.
func TestHelloDialerMatrix(t *testing.T) {
	roles := []Role{RoleData, RolePing, RoleFetch, RoleReport, RoleRate, RoleJoin}
	for _, sid := range []SessionID{0, 42} {
		for _, role := range roles {
			var c captureConn
			w := newWire(&c, SystemClock())
			if err := w.writeHello(role, 7, sid); err != nil {
				t.Fatalf("writeHello(%v, sid=%d): %v", role, sid, err)
			}
			r := newWire(readerConn{bytes.NewReader(c.Bytes())}, SystemClock())
			gotRole, gotFrom, gotSid, err := r.readHello()
			if err != nil {
				t.Fatalf("readHello(%v, sid=%d): %v", role, sid, err)
			}
			if gotRole != role || gotFrom != 7 || gotSid != sid {
				t.Fatalf("HELLO round trip (%v, sid=%d) = (%v, %d, %d)", role, sid, gotRole, gotFrom, gotSid)
			}
		}
	}
}

type readerConn struct{ r io.Reader }

func (c readerConn) Read(p []byte) (int, error)       { return c.r.Read(p) }
func (c readerConn) Write(p []byte) (int, error)      { return len(p), nil }
func (c readerConn) Close() error                     { return nil }
func (c readerConn) SetDeadline(time.Time) error      { return nil }
func (c readerConn) SetReadDeadline(time.Time) error  { return nil }
func (c readerConn) SetWriteDeadline(time.Time) error { return nil }
func (c readerConn) LocalAddr() string                { return "r:0" }
func (c readerConn) RemoteAddr() string               { return "r:1" }

// TestPGetSingleChunkByteIdentity captures the raw request bytes of the
// legacy single-gap fetch and of a one-chunk catch-up window against the
// same source and checks they are byte-identical: the range catch-up is
// the §III-D2 PGET, not a new verb.
func TestPGetSingleChunkByteIdentity(t *testing.T) {
	const chunk = 1024
	fab := transport.NewFabric(1 << 20)
	srvLst, err := fab.Host("srv").Listen("srv:7000")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer srvLst.Close()

	// The capture server reads exactly HELLO (14 B) + PGET (17 B), then
	// hangs up; both dialers error out after the request is on the wire.
	reqs := make(chan []byte, 4)
	go func() {
		for {
			c, err := srvLst.Accept()
			if err != nil {
				return
			}
			buf := make([]byte, 31)
			if _, err := io.ReadFull(c, buf); err == nil {
				reqs <- buf
			}
			_ = c.Close()
		}
	}()

	n := joinTestNode(t, fab, "srv:7000", 4*chunk, &collectSink{})
	ctx := context.Background()
	_ = n.fetchRange(ctx, 0, chunk) // errors on the hang-up; the request is out
	_ = n.fetchGapOnce(0, chunk)

	rangeReq := <-reqs
	legacyReq := <-reqs
	if !bytes.Equal(rangeReq, legacyReq) {
		t.Fatalf("catch-up PGET request %x differs from legacy gap fetch %x", rangeReq, legacyReq)
	}
}

// --- lifecycle validation ---------------------------------------------------

// TestSessionConfigValidate exercises the consolidated front-door
// validation: structural wiring plus the topology × options shape, without
// address checks.
func TestSessionConfigValidate(t *testing.T) {
	fab := transport.NewFabric(1 << 20)
	net := func(int) transport.Network { return fab.Host("h") }
	ok := SessionConfig{
		Peers:      []Peer{{Name: "a"}, {Name: "b"}}, // addresses unresolved: fine pre-bind
		NetworkFor: net,
	}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*SessionConfig)
	}{
		{"no peers", func(c *SessionConfig) { c.Peers = nil }},
		{"no network", func(c *SessionConfig) { c.NetworkFor = nil }},
		{"engine without session", func(c *SessionConfig) { c.EngineFor = func(int) *Engine { return nil } }},
		{"bad topology", func(c *SessionConfig) { c.Topology = "pentagram" }},
		{"rerank on a chain", func(c *SessionConfig) { c.Opts.Rerank = true }},
		{"tiny window", func(c *SessionConfig) { c.Opts.ChunkSize = 1 << 10; c.Opts.WindowChunks = 1 }},
	}
	for _, tc := range cases {
		cfg := ok
		tc.mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Fatalf("%s: invalid config accepted", tc.name)
		}
	}
}
