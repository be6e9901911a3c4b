package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"testing"
	"time"

	"kascade/internal/transport"
)

// TestReplacementMidChunkDoesNotCorruptWindow is the §III-D replay-window
// integrity regression test: a replacement predecessor connection arrives
// while the current predecessor is stalled MID-CHUNK (frame header plus a
// partial payload on the wire), then the current predecessor dies. The
// receiver must discard the torn chunk, resume from its last complete
// offset on the replacement connection (the GET it sends proves the
// window head), and deliver a bit-perfect payload. Run under -race, it
// also pins the accept-goroutine/upstream-loop handoff as data-race-free.
func TestReplacementMidChunkDoesNotCorruptWindow(t *testing.T) {
	fabric := transport.NewFabric(64 << 10)
	opts := testOpts()
	peers := []Peer{{Name: "n1", Addr: "n1:7000"}, {Name: "n2", Addr: "n2:7000"}}
	plan := Plan{Peers: peers, Opts: opts}
	data := testPayload(8*opts.ChunkSize, 41)
	cs := opts.ChunkSize

	// The test plays node 0: bind its listener to answer the receiver's
	// ring-closing report delivery.
	senderNet := fabric.Host("n1")
	senderL, err := senderNet.Listen(peers[0].Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer senderL.Close()
	go func() {
		for {
			c, aerr := senderL.Accept()
			if aerr != nil {
				return
			}
			go func(c transport.Conn) {
				w := newWire(c, SystemClock())
				defer w.close()
				w.setReadDeadlineIn(5 * time.Second)
				role, _, _, err := w.readHello()
				if err != nil || role != RoleReport {
					return
				}
				if typ, err := w.readType(); err != nil || typ != MsgReport {
					return
				}
				if _, err := w.readReport(); err != nil {
					return
				}
				_ = c.SetWriteDeadline(time.Now().Add(time.Second))
				_ = w.writePassed()
			}(c)
		}
	}()

	recvNet := fabric.Host("n2")
	sink := &collectSink{}
	node, err := NewNode(NodeConfig{
		Index: 1, Plan: plan, Network: recvNet, Engine: testEngine(t, recvNet, peers[1].Addr, opts), Sink: sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	runDone := make(chan error, 1)
	var report *Report
	go func() {
		rep, rerr := node.Run(context.Background())
		report = rep
		runDone <- rerr
	}()

	// Predecessor A: handshake, GET(0), three complete chunks.
	connA, err := senderNet.Dial(peers[1].Addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	wA := newWire(connA, SystemClock())
	if err := wA.writeHello(RoleData, 0, 0); err != nil {
		t.Fatal(err)
	}
	wA.setReadDeadlineIn(2 * time.Second)
	if typ, err := wA.readType(); err != nil || typ != MsgGet {
		t.Fatalf("A: want GET, got %v %v", typ, err)
	}
	if off, err := wA.readUint64(); err != nil || off != 0 {
		t.Fatalf("A: initial GET offset %d %v", off, err)
	}
	for i := 0; i < 3; i++ {
		if err := wA.writeData(data[i*cs : (i+1)*cs]); err != nil {
			t.Fatal(err)
		}
	}
	waitCond(t, 2*time.Second, func() bool { return node.BytesReceived() == uint64(3*cs) })

	// Now stall A mid-chunk: a DATA header promising a full chunk, but
	// only half the payload — the receiver blocks inside readData.
	var hdr [5]byte
	hdr[0] = byte(MsgData)
	binary.BigEndian.PutUint32(hdr[1:], uint32(cs))
	if _, err := connA.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := connA.Write(data[3*cs : 3*cs+cs/2]); err != nil {
		t.Fatal(err)
	}

	// Replacement B arrives WHILE the torn chunk is in flight.
	connB, err := senderNet.Dial(peers[1].Addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	wB := newWire(connB, SystemClock())
	if err := wB.writeHello(RoleData, 0, 0); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let B enter the queue mid-read
	// A dies with its chunk torn.
	_ = wA.close()

	// The receiver must ask B for the first byte after its last COMPLETE
	// chunk: the half chunk from A never entered the window.
	wB.setReadDeadlineIn(3 * time.Second)
	if typ, err := wB.readType(); err != nil || typ != MsgGet {
		t.Fatalf("B: want GET, got %v %v", typ, err)
	}
	off, err := wB.readUint64()
	if err != nil {
		t.Fatal(err)
	}
	if off != uint64(3*cs) {
		t.Fatalf("window corrupted: replacement GET at %d, want %d", off, 3*cs)
	}

	// A late, farther predecessor must be turned away with QUIT(excluded)
	// while B keeps the connection.
	connC, err := senderNet.Dial(peers[1].Addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	wC := newWire(connC, SystemClock())
	if err := wC.writeHello(RoleData, 1, 0); err != nil {
		t.Fatal(err)
	}
	wC.setReadDeadlineIn(2 * time.Second)
	if typ, err := wC.readType(); err != nil || typ != MsgQuit {
		t.Fatalf("C: want QUIT, got %v %v", typ, err)
	}
	if reason, err := wC.readQuit(); err != nil || reason != QuitExcluded {
		t.Fatalf("C: want QUIT(excluded), got %v %v", reason, err)
	}
	_ = wC.close()

	// B finishes the stream and runs the epilogue.
	for i := 3; i < 8; i++ {
		if err := wB.writeData(data[i*cs : (i+1)*cs]); err != nil {
			t.Fatal(err)
		}
	}
	if err := wB.writeEnd(uint64(len(data))); err != nil {
		t.Fatal(err)
	}
	if err := wB.writeReport(&Report{TotalBytes: uint64(len(data))}); err != nil {
		t.Fatal(err)
	}
	wB.setReadDeadlineIn(5 * time.Second)
	if typ, err := wB.readType(); err != nil || typ != MsgPassed {
		t.Fatalf("B: want PASSED, got %v %v", typ, err)
	}
	_ = wB.close()

	select {
	case rerr := <-runDone:
		if rerr != nil {
			t.Fatalf("receiver: %v", rerr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("receiver never finished")
	}
	if !bytes.Equal(sink.Bytes(), data) {
		t.Fatalf("sink corrupt: %d bytes", len(sink.Bytes()))
	}
	if report == nil || len(report.Failures) != 0 {
		t.Fatalf("report: %v", report)
	}
}
