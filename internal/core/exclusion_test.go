package core

import (
	"context"
	"encoding/json"
	"io"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"kascade/internal/transport"
)

// TestSlowNodeExclusion exercises the paper's §V future-work extension: a
// node whose drain rate stays below MinThroughput is excluded from the
// transfer, the pipeline routes around it, and everyone else still gets a
// full copy.
func TestSlowNodeExclusion(t *testing.T) {
	env := newTestEnv(5, 4<<10)
	env.sinks[2] = &slowSink{bytesPerSec: 24 << 10} // n3 drains at ~24 KiB/s
	data := testPayload(192<<10, 21)
	cfg := env.config(data, false)
	opts := testOpts()
	opts.MinThroughput = 128 << 10 // n3 is far below this
	opts.SlowNodeGrace = 300 * time.Millisecond
	cfg.Opts = opts

	sess, err := StartSession(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.Failed(2) {
		t.Fatalf("report must list the excluded node: %v", res.Report)
	}
	var excluded Failure
	for _, f := range res.Report.Failures {
		if f.Index == 2 {
			excluded = f
		}
	}
	if !strings.Contains(excluded.Reason, "excluded") {
		t.Fatalf("failure reason should mark exclusion: %q", excluded.Reason)
	}
	// The survivors get the complete payload at full speed.
	checkSink(t, env, 1, data)
	checkSink(t, env, 3, data)
	checkSink(t, env, 4, data)
	// The excluded node stepped aside (did not cascade a QUIT to n4).
	if sess.Nodes[3].Abandoned() {
		t.Fatal("n4 must not abandon when its predecessor was merely excluded")
	}
	if !sess.Nodes[2].Abandoned() {
		t.Fatal("excluded node should have stepped aside")
	}
}

// TestNoExclusionWithoutThreshold is the control: the same slow node is
// tolerated (the §III-D1 ping discipline) when MinThroughput is unset.
func TestNoExclusionWithoutThreshold(t *testing.T) {
	env := newTestEnv(4, 4<<10)
	env.sinks[2] = &slowSink{bytesPerSec: 48 << 10}
	data := testPayload(24<<10, 22)
	res, err := RunSession(context.Background(), env.config(data, false))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Report.Failures) != 0 {
		t.Fatalf("no exclusion threshold set, yet: %v", res.Report)
	}
	checkSink(t, env, 2, data)
}

// TestHealthyPipelineNeverExcludes: a fast pipeline with the threshold set
// must never trip the detector (time is only charged while writing).
func TestHealthyPipelineNeverExcludes(t *testing.T) {
	env := newTestEnv(5, 0)
	data := testPayload(256<<10, 23)
	cfg := env.config(data, false)
	opts := testOpts()
	opts.MinThroughput = 64 << 10 // far below in-memory speed
	opts.SlowNodeGrace = 50 * time.Millisecond
	cfg.Opts = opts
	res, err := RunSession(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Report.Failures) != 0 {
		t.Fatalf("healthy pipeline excluded someone: %v", res.Report)
	}
	for i := 1; i < 5; i++ {
		checkSink(t, env, i, data)
	}
}

// TestSlowSourceDoesNotTriggerExclusion: a data-starved pipeline (slow
// streamed source) spends no time writing, so the rate monitor must not
// misfire even with an aggressive threshold.
func TestSlowSourceDoesNotTriggerExclusion(t *testing.T) {
	env := newTestEnv(3, 0)
	data := testPayload(32<<10, 24)
	cfg := env.config(nil, false)
	// Drip-feed the input at ~64 KiB/s via a shaped reader.
	cfg.InputFile = nil
	cfg.Input = &pacedReader{data: data, bytesPerSec: 64 << 10}
	opts := testOpts()
	opts.MinThroughput = 512 << 10 // would exclude anything this slow...
	opts.SlowNodeGrace = 100 * time.Millisecond
	cfg.Opts = opts
	res, err := RunSession(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Report.Failures) != 0 {
		t.Fatalf("starved pipeline misdiagnosed as slow nodes: %v", res.Report)
	}
	checkSink(t, env, 1, data)
	checkSink(t, env, 2, data)
}

// TestPongSaysHeldBack pins the evidence the §V verdict reads: a window
// full of chunks no successor consumed is held back, a slow sink's is not
// (it is never full), and the PONG carries the state in a status byte that
// a bare PONG, closed right after its type byte, reads as not held.
func TestPongSaysHeldBack(t *testing.T) {
	ws := newWindowStore(4, 2, nil)
	if ws.heldBack() {
		t.Fatal("empty window held back")
	}
	for i := 0; i < 2; i++ {
		if err := ws.AppendBytes([]byte{1, 2, 3, 4}); err != nil {
			t.Fatal(err)
		}
	}
	if !ws.heldBack() {
		t.Fatal("full window of unconsumed chunks not held back")
	}
	ws.ResetLowWater(4) // the successor consumed the oldest chunk
	if ws.heldBack() {
		t.Fatal("window with a consumed chunk to evict still held back")
	}

	fabric := transport.NewFabric(0)
	l, err := fabric.Host("b").Listen(":1")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for _, tc := range []struct {
		name       string
		send       func(w *wire) error
		alive, got bool
	}{
		{"held", func(w *wire) error { return w.writePong(true) }, true, true},
		{"free", func(w *wire) error { return w.writePong(false) }, true, false},
		{"bare", func(w *wire) error { return w.writeType(MsgPong) }, true, false},
	} {
		c, err := fabric.Host("a").Dial("b:1", time.Second)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		if err := tc.send(newWire(srv, SystemClock())); err != nil {
			t.Fatal(err)
		}
		_ = srv.Close()
		w := newWire(c, SystemClock())
		_ = c.SetReadDeadline(time.Now().Add(time.Second))
		typ, err := w.readType()
		if err != nil || typ != MsgPong {
			t.Fatalf("%s: read %v, %v; want PONG", tc.name, typ, err)
		}
		if held := w.readPongStatus(); held != tc.got {
			t.Fatalf("%s: PONG status held=%v, want %v", tc.name, held, tc.got)
		}
		_ = c.Close()
	}
}

// TestStallWriterSparesHeldStalls: the stalls of a write whose ping found
// the successor held back are booked apart from its own drain time, so the
// §V window judges the successor only on the time it could have read.
func TestStallWriterSparesHeldStalls(t *testing.T) {
	for _, held := range []bool{true, false} {
		fabric := transport.NewFabric(1 << 10)
		l, err := fabric.Host("b").Listen(":1")
		if err != nil {
			t.Fatal(err)
		}
		c, err := fabric.Host("a").Dial("b:1", time.Second)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		go func() { // a successor that reads nothing for 200 ms, then drains
			time.Sleep(200 * time.Millisecond)
			_, _ = io.Copy(io.Discard, srv)
		}()
		probes := 0
		sw := &stallWriter{
			conn:   c,
			now:    time.Now,
			stall:  20 * time.Millisecond,
			budget: 5 * time.Second,
			probe: func() (bool, bool) {
				probes++
				return true, held
			},
		}
		start := time.Now()
		if _, err := sw.Write(make([]byte, 16<<10)); err != nil {
			t.Fatal(err)
		}
		elapsed := time.Since(start)
		_ = c.Close()
		_ = l.Close()
		if probes == 0 {
			t.Fatal("the write never stalled")
		}
		switch {
		case held && (sw.held < 100*time.Millisecond || sw.held > elapsed):
			t.Fatalf("held successor: booked %v of a %v write as held, want most of it", sw.held, elapsed)
		case !held && sw.held != 0:
			t.Fatalf("free successor: booked %v as held, want 0", sw.held)
		}
	}
}

// pacedReader drips its payload at a fixed rate.
type pacedReader struct {
	data        []byte
	off         int
	bytesPerSec float64
}

func (p *pacedReader) Read(buf []byte) (int, error) {
	if p.off >= len(p.data) {
		return 0, io.EOF
	}
	n := 2 << 10
	if n > len(buf) {
		n = len(buf)
	}
	if n > len(p.data)-p.off {
		n = len(p.data) - p.off
	}
	time.Sleep(time.Duration(float64(n) / p.bytesPerSec * float64(time.Second)))
	copy(buf, p.data[p.off:p.off+n])
	p.off += n
	return n, nil
}

// TestAcceptReplacementPolicy pins the predecessor-priority rule: on the
// chain, depth is the pipeline index, so "at least as close to the sender"
// wins; on trees, only a predecessor no deeper than the current one does.
func TestAcceptReplacementPolicy(t *testing.T) {
	mk := func(from int) *upstreamConn { return &upstreamConn{from: from} }
	chain := &Node{treeK: 1}
	if !chain.acceptReplacement(mk(3), mk(1)) {
		t.Error("closer predecessor must win")
	}
	if !chain.acceptReplacement(mk(2), mk(2)) {
		t.Error("same predecessor reconnecting must win")
	}
	if chain.acceptReplacement(mk(1), mk(4)) {
		t.Error("farther predecessor must not steal the connection")
	}
	// Binary tree: node 4's parent is 1 (depth 1); 1's parent is 0.
	tree := &Node{treeK: 2}
	if !tree.acceptReplacement(mk(1), mk(0)) {
		t.Error("grandparent adopting after the parent died must win")
	}
	if tree.acceptReplacement(mk(0), mk(1)) {
		t.Error("restarted parent must not steal the child back from the root")
	}
	if !tree.acceptReplacement(mk(1), mk(2)) {
		t.Error("equal-depth predecessor (reconnect-level) must win")
	}
	if tree.acceptReplacement(mk(1), mk(4)) {
		t.Error("deeper node must not steal a child from its parent")
	}
}

// Property: options round-trip through JSON (the CLI control protocol
// serialises them into agent start messages).
func TestOptionsJSONRoundTripQuick(t *testing.T) {
	f := func(chunkKiB uint8, window uint8, stallMs uint16) bool {
		in := Options{
			ChunkSize:         (int(chunkKiB)%64 + 1) << 10,
			WindowChunks:      int(window)%62 + 2,
			WriteStallTimeout: time.Duration(stallMs) * time.Millisecond,
		}
		payload, err := json.Marshal(in)
		if err != nil {
			return false
		}
		var out Options
		if err := json.Unmarshal(payload, &out); err != nil {
			return false
		}
		return out.ChunkSize == in.ChunkSize &&
			out.WindowChunks == in.WindowChunks &&
			out.WriteStallTimeout == in.WriteStallTimeout
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
