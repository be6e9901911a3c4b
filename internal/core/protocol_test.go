package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"
	"time"

	"kascade/internal/transport"
)

// testOpts returns timeouts scaled down for unit testing.
func testOpts() Options {
	return Options{
		ChunkSize:           4 << 10,
		WindowChunks:        8,
		WriteStallTimeout:   100 * time.Millisecond,
		PingTimeout:         60 * time.Millisecond,
		DialTimeout:         300 * time.Millisecond,
		DialRetries:         2,
		GetTimeout:          time.Second,
		FetchTimeout:        3 * time.Second,
		ReportTimeout:       3 * time.Second,
		UpstreamIdleTimeout: 3 * time.Second,
	}
}

// collectSink gathers everything written, safely readable at any time.
type collectSink struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (c *collectSink) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.buf.Write(p)
}

func (c *collectSink) Bytes() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.buf.Bytes()...)
}

// slowSink throttles writes to a fixed rate, modelling a slow disk.
type slowSink struct {
	collectSink
	bytesPerSec float64
}

func (s *slowSink) Write(p []byte) (int, error) {
	time.Sleep(time.Duration(float64(len(p)) / s.bytesPerSec * float64(time.Second)))
	return s.collectSink.Write(p)
}

func testPayload(n int, seed int64) []byte {
	p := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(p)
	return p
}

// testEnv is a fabric plus peers named n1..nN, each with a collect sink by
// default (replaceable per test).
type testEnv struct {
	fabric *transport.Fabric
	peers  []Peer
	sinks  []io.Writer
}

func newTestEnv(n, bufSize int) *testEnv {
	env := &testEnv{fabric: transport.NewFabric(bufSize)}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("n%d", i+1)
		env.peers = append(env.peers, Peer{Name: name, Addr: name + ":7000"})
		env.sinks = append(env.sinks, &collectSink{})
	}
	return env
}

// testEngine binds a private engine for one node built by hand, closed when
// the test ends.
func testEngine(t testing.TB, network transport.Network, addr string, opts Options) *Engine {
	t.Helper()
	e, err := NewSessionEngine(network, addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func (env *testEnv) config(data []byte, stream bool) SessionConfig {
	cfg := SessionConfig{
		Peers:      env.peers,
		Opts:       testOpts(),
		NetworkFor: func(i int) transport.Network { return env.fabric.Host(env.peers[i].Name) },
		SinkFor:    func(i int) io.Writer { return env.sinks[i] },
	}
	if stream {
		cfg.Input = bytes.NewReader(data)
	} else {
		cfg.InputFile = bytes.NewReader(data)
		cfg.InputSize = int64(len(data))
	}
	return cfg
}

func (env *testEnv) sinkBytes(i int) []byte {
	switch s := env.sinks[i].(type) {
	case *collectSink:
		return s.Bytes()
	case *slowSink:
		return s.Bytes()
	default:
		return nil
	}
}

func checkSink(t *testing.T, env *testEnv, i int, want []byte) {
	t.Helper()
	got := env.sinkBytes(i)
	if sha256.Sum256(got) != sha256.Sum256(want) {
		t.Errorf("node %d sink mismatch: got %d bytes, want %d", i, len(got), len(want))
	}
}

func waitCond(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

// --- happy paths -----------------------------------------------------------

func TestBroadcastFileSource(t *testing.T) {
	env := newTestEnv(6, 0)
	data := testPayload(100<<10, 1)
	res, err := RunSession(context.Background(), env.config(data, false))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Report.Failures) != 0 {
		t.Fatalf("unexpected failures: %v", res.Report)
	}
	if res.Report.TotalBytes != uint64(len(data)) {
		t.Fatalf("total bytes %d, want %d", res.Report.TotalBytes, len(data))
	}
	for i := 1; i < 6; i++ {
		checkSink(t, env, i, data)
		if res.NodeErrs[i] != nil {
			t.Errorf("node %d: %v", i, res.NodeErrs[i])
		}
	}
}

func TestBroadcastStreamSource(t *testing.T) {
	env := newTestEnv(5, 0)
	data := testPayload(64<<10+123, 2) // not chunk-aligned
	res, err := RunSession(context.Background(), env.config(data, true))
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.TotalBytes != uint64(len(data)) {
		t.Fatalf("total bytes %d, want %d", res.Report.TotalBytes, len(data))
	}
	for i := 1; i < 5; i++ {
		checkSink(t, env, i, data)
	}
}

func TestBroadcastTinyAndEmptyPayloads(t *testing.T) {
	for _, size := range []int{0, 1, 100, 4096, 4097} {
		size := size
		t.Run(fmt.Sprintf("size=%d", size), func(t *testing.T) {
			env := newTestEnv(3, 0)
			data := testPayload(size, int64(size))
			res, err := RunSession(context.Background(), env.config(data, true))
			if err != nil {
				t.Fatal(err)
			}
			if res.Report.TotalBytes != uint64(size) {
				t.Fatalf("total %d, want %d", res.Report.TotalBytes, size)
			}
			for i := 1; i < 3; i++ {
				checkSink(t, env, i, data)
			}
		})
	}
}

func TestBroadcastSingleReceiver(t *testing.T) {
	env := newTestEnv(2, 0)
	data := testPayload(32<<10, 3)
	res, err := RunSession(context.Background(), env.config(data, false))
	if err != nil {
		t.Fatal(err)
	}
	checkSink(t, env, 1, data)
	if len(res.Report.Failures) != 0 {
		t.Fatalf("failures: %v", res.Report)
	}
}

func TestBroadcastNoReceivers(t *testing.T) {
	env := newTestEnv(1, 0)
	data := testPayload(8<<10, 4)
	res, err := RunSession(context.Background(), env.config(data, false))
	if err != nil {
		t.Fatal(err)
	}
	if res.Report == nil {
		t.Fatal("no report")
	}
}

// --- failure handling ------------------------------------------------------

// killWhen kills host once cond holds (polled).
func killWhen(env *testEnv, host string, cond func() bool) {
	go func() {
		for !cond() {
			time.Sleep(time.Millisecond)
		}
		env.fabric.Kill(host)
	}()
}

func TestSingleFailureMidTransferReplay(t *testing.T) {
	env := newTestEnv(5, 8<<10)
	// Pace the sender's links so the kill happens mid-transfer.
	env.fabric.SetDefaultProfile(transport.Profile{Rate: 2 << 20})
	data := testPayload(256<<10, 5)
	sess, err := StartSession(context.Background(), env.config(data, false))
	if err != nil {
		t.Fatal(err)
	}
	// Kill n3 (index 2) once it is mid-stream.
	killWhen(env, "n3", func() bool { return sess.Nodes[2].BytesReceived() > 64<<10 })
	res, err := sess.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.Failed(2) {
		t.Fatalf("report must list n3: %v", res.Report)
	}
	if len(res.Report.Failures) != 1 {
		t.Fatalf("exactly one failure expected: %v", res.Report)
	}
	// Survivors get the complete, correct payload.
	checkSink(t, env, 1, data)
	checkSink(t, env, 3, data)
	checkSink(t, env, 4, data)
}

func TestAdjacentDoubleFailure(t *testing.T) {
	env := newTestEnv(6, 8<<10)
	env.fabric.SetDefaultProfile(transport.Profile{Rate: 2 << 20})
	data := testPayload(256<<10, 6)
	sess, err := StartSession(context.Background(), env.config(data, false))
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for sess.Nodes[3].BytesReceived() < 64<<10 {
			time.Sleep(time.Millisecond)
		}
		env.fabric.Kill("n3")
		env.fabric.Kill("n4")
	}()
	res, err := sess.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.Failed(2) || !res.Report.Failed(3) {
		t.Fatalf("report must list n3 and n4: %v", res.Report)
	}
	checkSink(t, env, 1, data)
	checkSink(t, env, 4, data)
	checkSink(t, env, 5, data)
}

func TestLastNodeFailure(t *testing.T) {
	env := newTestEnv(4, 8<<10)
	env.fabric.SetDefaultProfile(transport.Profile{Rate: 2 << 20})
	data := testPayload(128<<10, 7)
	sess, err := StartSession(context.Background(), env.config(data, false))
	if err != nil {
		t.Fatal(err)
	}
	killWhen(env, "n4", func() bool { return sess.Nodes[3].BytesReceived() > 32<<10 })
	res, err := sess.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.Failed(3) {
		t.Fatalf("report must list n4: %v", res.Report)
	}
	// n3 became the tail and still closed the ring.
	checkSink(t, env, 1, data)
	checkSink(t, env, 2, data)
}

func TestFailureBeforeFirstConnection(t *testing.T) {
	// The paper's deadlock case: a node crashes before its first
	// connection; GET-on-every-connection keeps the pipeline alive.
	env := newTestEnv(5, 0)
	data := testPayload(64<<10, 8)
	sess, err := StartSession(context.Background(), env.config(data, false))
	if err != nil {
		t.Fatal(err)
	}
	env.fabric.Kill("n3") // dead before it dials anyone
	res, err := sess.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.Failed(2) {
		t.Fatalf("report must list n3: %v", res.Report)
	}
	checkSink(t, env, 1, data)
	checkSink(t, env, 3, data)
	checkSink(t, env, 4, data)
}

func TestAllReceiversFail(t *testing.T) {
	env := newTestEnv(3, 8<<10)
	env.fabric.SetDefaultProfile(transport.Profile{Rate: 2 << 20})
	data := testPayload(128<<10, 9)
	sess, err := StartSession(context.Background(), env.config(data, false))
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for sess.Nodes[1].BytesReceived() < 16<<10 {
			time.Sleep(time.Millisecond)
		}
		env.fabric.Kill("n2")
		env.fabric.Kill("n3")
	}()
	res, err := sess.Wait()
	if err != nil {
		t.Fatal(err)
	}
	// The sender becomes its own tail and reports both deaths.
	if !res.Report.Failed(1) || !res.Report.Failed(2) {
		t.Fatalf("report: %v", res.Report)
	}
}

func TestFileSourceGapFetchViaPGET(t *testing.T) {
	// Force a recovering successor below its new predecessor's window:
	// n5 drains slowly, building lag across the pipeline; killing n3
	// makes n4 resume from n2, whose window has moved past n4's offset,
	// so n4 must PGET the gap from the sender (file-backed: succeeds).
	env := newTestEnv(6, 4<<10)
	env.sinks[4] = &slowSink{bytesPerSec: 256 << 10}
	data := testPayload(256<<10, 10)
	cfg := env.config(data, false)
	opts := testOpts()
	opts.WindowChunks = 4
	cfg.Opts = opts
	sess, err := StartSession(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	killWhen(env, "n3", func() bool { return sess.Nodes[4].BytesReceived() > 48<<10 })
	res, err := sess.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.Failed(2) {
		t.Fatalf("report must list n3: %v", res.Report)
	}
	for _, i := range []int{1, 3, 4, 5} {
		checkSink(t, env, i, data)
	}
}

func TestStreamSourceAbandonCascade(t *testing.T) {
	// Same lag construction, but with a streamed source and two adjacent
	// kills: the gap exceeds every window, the sender answers FORGET to
	// the PGET, and everything downstream of the gap abandons (§III-D2).
	env := newTestEnv(6, 4<<10)
	env.sinks[3] = &slowSink{bytesPerSec: 192 << 10}
	data := testPayload(256<<10, 11)
	cfg := env.config(data, true)
	opts := testOpts()
	opts.WindowChunks = 4
	cfg.Opts = opts
	sess, err := StartSession(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for sess.Nodes[3].BytesReceived() < 48<<10 {
			time.Sleep(time.Millisecond)
		}
		env.fabric.Kill("n2")
		env.fabric.Kill("n3")
	}()
	res, err := sess.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.Failed(1) || !res.Report.Failed(2) {
		t.Fatalf("report must list n2 and n3: %v", res.Report)
	}
	// Nodes past the gap abandoned; the sender still completed.
	if !sess.Nodes[3].Abandoned() {
		t.Error("n4 should have abandoned after FORGET from the streamed sender")
	}
	if !sess.Nodes[4].Abandoned() && !res.Report.Failed(4) {
		t.Error("n5 should have abandoned via the QUIT cascade (or been reported dead)")
	}
}

func TestUserAbortQuitsGracefully(t *testing.T) {
	env := newTestEnv(4, 8<<10)
	env.fabric.SetDefaultProfile(transport.Profile{Rate: 1 << 20})
	data := testPayload(512<<10, 12)
	ctx, cancel := context.WithCancel(context.Background())
	sess, err := StartSession(ctx, env.config(data, true))
	if err != nil {
		t.Fatal(err)
	}
	waitCond(t, 5*time.Second, func() bool { return sess.Nodes[3].BytesReceived() > 32<<10 })
	cancel()
	res, err := sess.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.Aborted {
		t.Fatalf("report must be marked aborted: %v", res.Report)
	}
	if len(res.Report.Failures) != 0 {
		t.Fatalf("an abort is not a failure: %v", res.Report)
	}
	// All sinks hold a consistent prefix of the payload.
	for i := 1; i < 4; i++ {
		got := env.sinkBytes(i)
		if !bytes.Equal(got, data[:len(got)]) {
			t.Errorf("node %d sink is not a prefix (%d bytes)", i, len(got))
		}
	}
}

func TestSlowButAliveIsNotAFailure(t *testing.T) {
	// §III-D1: a stalled write triggers a ping; an answered ping means
	// "keep waiting", so a slow node must never be declared dead.
	env := newTestEnv(4, 4<<10)
	env.sinks[2] = &slowSink{bytesPerSec: 48 << 10} // stalls well past WriteStallTimeout
	data := testPayload(24<<10, 13)
	res, err := RunSession(context.Background(), env.config(data, false))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Report.Failures) != 0 {
		t.Fatalf("slow node misdeclared dead: %v", res.Report)
	}
	checkSink(t, env, 2, data)
	checkSink(t, env, 3, data)
}

func TestBroadcastOverRealTCP(t *testing.T) {
	peers := make([]Peer, 5)
	sinks := make([]io.Writer, 5)
	for i := range peers {
		peers[i] = Peer{Name: fmt.Sprintf("n%d", i+1), Addr: "127.0.0.1:0"}
		sinks[i] = &collectSink{}
	}
	data := testPayload(1<<20, 14)
	cfg := SessionConfig{
		Peers:      peers,
		Opts:       testOpts(),
		NetworkFor: func(int) transport.Network { return transport.TCP{} },
		SinkFor:    func(i int) io.Writer { return sinks[i] },
		InputFile:  bytes.NewReader(data),
		InputSize:  int64(len(data)),
	}
	res, err := RunSession(context.Background(), cfg)
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	if len(res.Report.Failures) != 0 {
		t.Fatalf("failures over loopback: %v", res.Report)
	}
	for i := 1; i < 5; i++ {
		got := sinks[i].(*collectSink).Bytes()
		if sha256.Sum256(got) != sha256.Sum256(data) {
			t.Errorf("node %d corrupted payload over TCP", i)
		}
	}
}

func TestSessionValidation(t *testing.T) {
	if _, err := RunSession(context.Background(), SessionConfig{}); err == nil {
		t.Error("empty config accepted")
	}
	env := newTestEnv(2, 0)
	cfg := env.config(nil, false)
	cfg.NetworkFor = nil
	if _, err := RunSession(context.Background(), cfg); err == nil {
		t.Error("missing NetworkFor accepted")
	}
	// Sender without input.
	bad := SessionConfig{
		Peers:      env.peers,
		Opts:       testOpts(),
		NetworkFor: func(i int) transport.Network { return env.fabric.Host(env.peers[i].Name) },
	}
	if _, err := RunSession(context.Background(), bad); err == nil {
		t.Error("sender without input accepted")
	}
}

func TestNewNodeValidation(t *testing.T) {
	env := newTestEnv(2, 0)
	plan := Plan{Peers: env.peers, Opts: testOpts()}
	if _, err := NewNode(NodeConfig{Index: -1, Plan: plan}); err == nil {
		t.Error("negative index accepted")
	}
	net1 := env.fabric.Host("n1")
	if _, err := NewNode(NodeConfig{Index: 0, Plan: plan, Network: net1, InputFile: bytes.NewReader(nil)}); err == nil {
		t.Error("missing engine accepted")
	}
	e := testEngine(t, net1, env.peers[0].Addr, plan.Opts)
	if _, err := NewNode(NodeConfig{Index: 0, Plan: plan, Engine: e}); err == nil {
		t.Error("missing network accepted")
	}
	if _, err := NewNode(NodeConfig{Index: 0, Plan: plan, Network: net1, Engine: e}); err == nil {
		t.Error("sender without input accepted")
	}
	if _, err := NewNode(NodeConfig{
		Index: 1, Plan: plan, Network: net1, Engine: e,
		Input: bytes.NewReader(nil),
	}); err == nil {
		t.Error("receiver with input accepted")
	}
}
