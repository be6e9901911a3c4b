package core

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"testing"
	"time"

	"kascade/internal/transport"
)

// rerankOpts are tree options with re-ranking switched on and the planner
// running fast enough for short test payloads.
func rerankOpts() Options {
	return Options{
		ChunkSize:         8 << 10,
		WindowChunks:      8,
		Rerank:            true,
		RerankInterval:    50 * time.Millisecond,
		RerankMinInterval: 100 * time.Millisecond,
	}
}

// runRerankSession starts a rerank-enabled tree broadcast over an in-memory
// fabric, letting the caller shape links before the first byte flows, and
// returns the result plus node 0's final view state.
func runRerankSession(t *testing.T, n, k, size int, shape func(*transport.Fabric)) (*SessionResult, []byte, [][]byte, uint64, []int, uint64) {
	t.Helper()
	fabric := transport.NewFabric(1 << 22)
	peers := make([]Peer, n)
	sinks := make([]*collectSink, n)
	for i := range peers {
		peers[i] = Peer{Name: fmt.Sprintf("n%d", i), Addr: fmt.Sprintf("n%d:7000", i)}
		sinks[i] = &collectSink{}
	}
	if shape != nil {
		shape(fabric)
	}
	payload := testPayload(size, 0x5e0e)

	sess, err := StartSession(context.Background(), SessionConfig{
		Peers:      peers,
		Opts:       rerankOpts(),
		Topology:   TopologyTree(k),
		NetworkFor: func(i int) transport.Network { return fabric.Host(peers[i].Name) },
		SinkFor:    func(i int) io.Writer { return sinks[i] },
		InputFile:  bytes.NewReader(payload),
		InputSize:  int64(size),
	})
	if err != nil {
		t.Fatalf("StartSession: %v", err)
	}
	root := sess.Nodes[0]
	res, err := sess.Wait()
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	version, occupants, migrations, _ := root.ReorgState()
	outs := make([][]byte, n)
	for i, s := range sinks {
		outs[i] = s.Bytes()
	}
	return res, payload, outs, version, occupants, migrations
}

// TestRerankHomogeneous checks that a rerank-enabled broadcast over uniform
// links is simply a correct tree broadcast: every receiver gets the payload
// bit-perfect and no peer is reported failed.
func TestRerankHomogeneous(t *testing.T) {
	const size = 512 << 10
	res, payload, outs, _, occupants, _ := runRerankSession(t, 8, 2, size, nil)
	if res.Report.TotalBytes != uint64(size) {
		t.Fatalf("TotalBytes = %d, want %d", res.Report.TotalBytes, size)
	}
	if len(res.Report.Failures) != 0 {
		t.Fatalf("unexpected failures: %v", res.Report.Failures)
	}
	for i := 1; i < len(outs); i++ {
		if !bytes.Equal(outs[i], payload) {
			t.Fatalf("node %d payload mismatch: got %d bytes", i, len(outs[i]))
		}
	}
	if len(occupants) != 8 {
		t.Fatalf("view has %d occupants, want 8", len(occupants))
	}
}

// TestRerankDemotesSlowInterior throttles every link out of an interior node
// and checks the planner demotes it: the broadcast still completes
// bit-perfect everywhere, at least one migration fires, and the slow node
// finishes the run in a leaf slot of the final view.
func TestRerankDemotesSlowInterior(t *testing.T) {
	const (
		n    = 8
		k    = 2
		size = 1 << 20
		slow = 128 << 10 // bytes/s out of the victim: interior duty is ~60x too slow
	)
	victim := 1
	res, payload, outs, version, occupants, migrations := runRerankSession(t, n, k, size, func(f *transport.Fabric) {
		p := transport.Profile{Rate: slow}
		for i := 0; i < n; i++ {
			if i != victim {
				f.SetLinkProfile(fmt.Sprintf("n%d", victim), fmt.Sprintf("n%d", i), p)
			}
		}
	})
	if res.Report.TotalBytes != uint64(size) {
		t.Fatalf("TotalBytes = %d, want %d", res.Report.TotalBytes, size)
	}
	if len(res.Report.Failures) != 0 {
		t.Fatalf("unexpected failures: %v", res.Report.Failures)
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(outs[i], payload) {
			t.Fatalf("node %d payload mismatch: got %d bytes, want %d", i, len(outs[i]), len(payload))
		}
	}
	if migrations == 0 {
		t.Fatalf("no migrations executed; view version %d, occupants %v", version, occupants)
	}
	slot := -1
	for s, node := range occupants {
		if node == victim {
			slot = s
			break
		}
	}
	if slot < 0 {
		t.Fatalf("victim %d missing from final view %v", victim, occupants)
	}
	if k*slot+1 < n {
		t.Fatalf("victim %d still interior at slot %d of final view %v (version %d, %d migrations)",
			victim, slot, occupants, version, migrations)
	}
}

// plannerRoot builds node 0 of a 7-node re-ranking tree:2 over a 256 KiB
// file-backed payload, prepared but not running, so a test can drive its
// planner and serving paths directly.
func plannerRoot(t *testing.T, opts Options) (*Node, *transport.Fabric, []Peer) {
	t.Helper()
	const nodes, size = 7, 256 << 10
	fabric := transport.NewFabric(1 << 16)
	peers := make([]Peer, nodes)
	for i := range peers {
		peers[i] = Peer{Name: fmt.Sprintf("n%d", i), Addr: fmt.Sprintf("n%d:7000", i)}
	}
	net0 := fabric.Host(peers[0].Name)
	n, err := NewNode(NodeConfig{
		Index:     0,
		Plan:      Plan{Peers: peers, Opts: opts, Topology: TopologyTree(2)},
		Network:   net0,
		Engine:    testEngine(t, net0, peers[0].Addr, opts),
		InputFile: bytes.NewReader(make([]byte, size)),
		InputSize: size,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.ictx, n.cancel = context.WithCancel(context.Background())
	t.Cleanup(n.cancel)
	if err := n.prepare(); err != nil {
		t.Fatal(err)
	}
	return n, fabric, peers
}

// TestRerankFreezeProjectsStaleReports pins the planner's end-of-stream
// freeze against stale rate reports. Node 1 is slow, and its fresh report
// would swap it with leaf 3 or 4. Spokes come one RerankInterval apart, so
// when the other nodes last reported 200 KiB at 1 MB/s 80 ms ago they hold
// the whole 256 KiB by now: the plan must freeze rather than hand node 1's
// children to nodes that may already have finished and detached.
func TestRerankFreezeProjectsStaleReports(t *testing.T) {
	for _, tc := range []struct {
		name string
		age  time.Duration
		want uint64
	}{
		{"fresh", 0, 1},
		{"stale", 80 * time.Millisecond, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := NewFakeClock(time.Unix(1000, 0))
			opts := rerankOpts()
			opts.Clock = clk
			n, _, _ := plannerRoot(t, opts)
			const end = 256 << 10
			for _, x := range []int{3, 4, 5, 6} {
				n.reorg.fold(&rateReport{From: x, Version: 1, Ingest: 1e6, Have: 200 << 10})
			}
			n.reorg.fold(&rateReport{From: 2, Version: 1, Ingest: 1e6, Have: 200 << 10,
				Links: []linkRate{{Peer: 5, Rate: 1e8}, {Peer: 6, Rate: 1e8}}})
			clk.Advance(tc.age)
			n.reorg.fold(&rateReport{From: 1, Version: 1, Ingest: 1e5, Have: end - 16<<10,
				Links: []linkRate{{Peer: 3, Rate: 1e5}, {Peer: 4, Rate: 1e5}}})
			if got, _ := n.reorg.counters(); got != tc.want {
				_, occ, _, _ := n.ReorgState()
				t.Fatalf("%d migrations, want %d (view %v)", got, tc.want, occ)
			}
		})
	}
}

// TestExpectTypeSparesFinishedChild: a child whose ring spoke landed at
// node 0 has finished its copy and closed its listener. Waiting on it for
// a frame that never comes, with the ping unanswered, is a completed
// lifecycle, not a death, and must not name it in the report. Nor is a
// child whose awaited frame lands only after the stall timer fired and
// its ping went unanswered: it sent the frame and then detached.
func TestExpectTypeSparesFinishedChild(t *testing.T) {
	opts := rerankOpts()
	opts.WriteStallTimeout = 20 * time.Millisecond
	opts.PingTimeout = 20 * time.Millisecond
	n, fabric, peers := plannerRoot(t, opts)

	// silentChild connects node 0 to view child c, which accepts and then
	// closes its listener without answering; far is the child's end.
	silentChild := func(c int) (w, far *wire) {
		l, err := fabric.Host(peers[c].Name).Listen(peers[c].Addr)
		if err != nil {
			t.Fatal(err)
		}
		conn, err := n.cfg.Network.Dial(peers[c].Addr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		fc, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { fc.Close() })
		l.Close()
		w = n.newWire(conn)
		t.Cleanup(func() { w.close() })
		return w, n.newWire(fc)
	}

	n.reorg.noteSpoke(1)
	w1, _ := silentChild(1)
	out, err := n.expectType(context.Background(), w1, 1, peers[1].Addr, MsgGet, time.Second, false)
	if out != outcomeSuperseded || err != nil {
		t.Fatalf("finished child: outcome %d, err %v; want superseded", out, err)
	}
	if n.isFailedPeer(1) {
		t.Fatal("finished child named a failure")
	}

	// PASSED written three stall periods in: the first read times out and
	// the probe finds the listener closed well before it lands.
	n.opts.PingTimeout = time.Second
	w3, far := silentChild(3)
	go func() {
		time.Sleep(3 * opts.WriteStallTimeout)
		_ = far.writePassed()
	}()
	if out, err := n.expectType(context.Background(), w3, 3, peers[3].Addr, MsgPassed, time.Second, false); out != outcomeOK || err != nil {
		t.Fatalf("late PASSED from a detached child: outcome %d, err %v; want ok", out, err)
	}
	if n.isFailedPeer(3) {
		t.Fatal("child whose PASSED landed late named a failure")
	}
	n.opts.PingTimeout = opts.PingTimeout

	// Without the spoke the same silence is a death.
	w2, _ := silentChild(2)
	if out, _ := n.expectType(context.Background(), w2, 2, peers[2].Addr, MsgGet, time.Second, false); out != outcomeDead {
		t.Fatalf("silent child without a spoke: outcome %d, want dead", out)
	}
	if !n.isFailedPeer(2) {
		t.Fatal("silent child without a spoke was not named")
	}
}
