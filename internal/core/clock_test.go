package core

import (
	"context"
	"testing"
	"time"

	"kascade/internal/transport"
)

func TestFakeClockTimers(t *testing.T) {
	clk := NewFakeClock(time.Unix(1000, 0))
	early := clk.NewTimer(time.Second)
	late := clk.NewTimer(time.Hour)
	if got := clk.Now(); !got.Equal(time.Unix(1000, 0)) {
		t.Fatalf("Now = %v", got)
	}
	clk.Advance(2 * time.Second)
	select {
	case <-early.C():
	default:
		t.Fatal("1s timer did not fire after a 2s advance")
	}
	select {
	case <-late.C():
		t.Fatal("1h timer fired after a 2s advance")
	default:
	}
	if !late.Stop() {
		t.Fatal("Stop on a pending timer should report true")
	}
	clk.Advance(2 * time.Hour)
	select {
	case <-late.C():
		t.Fatal("stopped timer fired")
	default:
	}
	if early.Stop() {
		t.Fatal("Stop on a fired timer should report false")
	}
}

// TestInjectedClockDrivesUpstreamIdleTimeout: the upstream-idle timer — an
// hour of wall-clock patience in production — gives up instantly when the
// injected clock advances past it, proving the engine's waits run on
// Options.Clock instead of hardcoded time.Now()/time.After.
func TestInjectedClockDrivesUpstreamIdleTimeout(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	env := newTestEnv(2, 0)
	opts := testOpts()
	opts.Clock = clk
	opts.UpstreamIdleTimeout = time.Hour
	plan := Plan{Peers: env.peers, Opts: opts}

	// The engine keeps the system clock: only the node's own waits may
	// park on the fake one.
	net2 := env.fabric.Host("n2")
	e, err := NewEngine(net2, env.peers[1].Addr, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	n, err := NewNode(NodeConfig{Index: 1, Plan: plan, Network: net2, Engine: e})
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	errC := make(chan error, 1)
	go func() {
		_, aerr := n.awaitUpstream(context.Background())
		errC <- aerr
	}()
	// No predecessor ever dials: only the fake hour may unblock the wait.
	// Wait for the goroutine to park on its timer before advancing.
	waitCond(t, 5*time.Second, func() bool {
		clk.mu.Lock()
		defer clk.mu.Unlock()
		return len(clk.waiters) > 0
	})
	clk.Advance(2 * time.Hour)
	select {
	case aerr := <-errC:
		if aerr == nil {
			t.Fatal("awaitUpstream returned without a predecessor or timeout")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("awaitUpstream ignored the injected clock")
	}
	if real := time.Since(start); real > 2*time.Second {
		t.Fatalf("fake one-hour wait took %v of real time", real)
	}
}

// The defaulted clock must be the system clock, and a full broadcast must
// run unchanged with an explicitly injected system clock.
func TestSystemClockDefaultAndExplicit(t *testing.T) {
	if (Options{}).withDefaults().Clock == nil {
		t.Fatal("withDefaults left Clock nil")
	}
	env := newTestEnv(3, 0)
	data := testPayload(16<<10, 31)
	cfg := env.config(data, false)
	opts := testOpts()
	opts.Clock = SystemClock()
	cfg.Opts = opts
	res, err := RunSession(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Report.Failures) != 0 {
		t.Fatalf("failures: %v", res.Report)
	}
	checkSink(t, env, 1, data)
	checkSink(t, env, 2, data)
}

// Compile-time: both clocks satisfy the interface, and the transport's
// fault hooks coexist with the engine types this package exports.
var (
	_ Clock             = SystemClock()
	_ Clock             = (*FakeClock)(nil)
	_ transport.Network = (*transport.TCP)(nil)
)
