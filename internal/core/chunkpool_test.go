package core

import (
	"runtime"
	"testing"
	"time"

	"kascade/internal/transport"
)

func TestChunkPoolRecyclesBuffers(t *testing.T) {
	pool := newChunkPool(64, 2)
	a := pool.get(64)
	buf := &a.buf[0]
	a.release()
	b := pool.get(32)
	if &b.buf[0] != buf {
		t.Fatal("released buffer was not recycled")
	}
	if len(b.bytes()) != 32 {
		t.Fatalf("recycled chunk length %d, want 32", len(b.bytes()))
	}
	b.release()

	// Oversize requests bypass the pool entirely.
	big := pool.get(128)
	if big.pool != nil {
		t.Fatal("oversize chunk must not be pooled")
	}
	big.release()
}

func TestChunkReleasePanicsOnDoubleRelease(t *testing.T) {
	pool := newChunkPool(8, 1)
	c := pool.get(8)
	c.retain()
	c.release()
	c.release()
	defer func() {
		if recover() == nil {
			t.Fatal("double release must panic")
		}
	}()
	c.release()
}

// TestRelayPathAllocs is the allocation regression guard for the path a
// relay runs on a Fabric: a DATA frame arrives on a deadline-armed pipe,
// wire.readDataInto lands it in a pooled buffer, ingest appends it to the
// ring (ownership move, no copy), nextBatch reads it back and
// writeDataBatch emits it through the stallWriter as one vectored write
// into the next pipe. Deadlines are set where serveUpstream and
// serveSuccessor set them. Steady state must not allocate — the ≤1 budget
// absorbs runtime noise only. AllocsPerRun counts every goroutine, so the
// feeding predecessor and the draining successor are held to it too.
func TestRelayPathAllocs(t *testing.T) {
	const chunkSize = 4 << 10
	opts := Options{ChunkSize: chunkSize, WindowChunks: 32}.withDefaults()
	fabric := transport.NewFabric(4 * chunkSize) // small rings: reads and writes really block
	link := func(from, to string) (dialed, accepted transport.Conn) {
		l, err := fabric.Host(to).Listen(":1")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		if dialed, err = fabric.Host(from).Dial(to+":1", time.Second); err != nil {
			t.Fatal(err)
		}
		if accepted, err = l.Accept(); err != nil {
			t.Fatal(err)
		}
		return dialed, accepted
	}
	predOut, relayIn := link("pred", "relay")
	relayOut, succIn := link("relay", "succ")
	defer predOut.Close()
	defer succIn.Close()

	pool := newChunkPool(chunkSize, opts.WindowChunks+poolSlack)
	ws := newWindowStore(chunkSize, opts.WindowChunks, pool)
	n := &Node{opts: opts, clk: SystemClock(), st: ws, ws: ws, pool: pool}
	in := n.newWire(relayIn)
	out := n.newWire(relayOut)
	out.out = &stallWriter{
		conn:   relayOut,
		now:    n.clk.Now,
		stall:  opts.WriteStallTimeout,
		budget: opts.FetchTimeout,
		probe:  func() bool { return true },
	}

	go func() { // predecessor: DATA frames as fast as the relay takes them
		w := newWire(predOut, SystemClock())
		payload := make([]byte, chunkSize)
		for w.writeData(payload) == nil {
		}
	}()
	go func() { // successor: drain
		buf := make([]byte, 2*chunkSize)
		for {
			if _, err := succIn.Read(buf); err != nil {
				return
			}
		}
	}()

	scratch := make([]*chunk, 0, maxBatchChunks)
	var off uint64
	relayOne := func() {
		in.setReadDeadlineIn(opts.pollInterval())
		typ, err := in.readType()
		if err != nil || typ != MsgData {
			t.Fatalf("frame type %v, %v", typ, err)
		}
		in.setReadDeadlineIn(opts.UpstreamIdleTimeout)
		size, err := in.readDataSize()
		if err != nil {
			t.Fatal(err)
		}
		c, err := in.readDataInto(pool, size)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.ingest(c); err != nil {
			t.Fatal(err)
		}
		batch, batchBytes, err := n.nextBatch(off, scratch[:0])
		if err != nil {
			t.Fatal(err)
		}
		if err := out.writeDataBatch(batch); err != nil {
			t.Fatal(err)
		}
		for i, c := range batch {
			c.release()
			batch[i] = nil
		}
		off += uint64(batchBytes)
		ws.SetLowWater(off)
	}
	allocs := testing.AllocsPerRun(300, relayOne)
	t.Logf("%.0f allocs per relayed chunk", allocs)
	if allocs > 1 {
		t.Errorf("relay path allocates %.1f times per chunk, want <= 1", allocs)
	}
	if off == 0 {
		t.Fatal("nothing was relayed")
	}
}

// TestWindowStoreReplayHoldsRefAcrossEviction drives the exact hazard the
// reference counts exist for: a slow replay to a recovering successor holds
// a chunk while the appender evicts it and the pool recycles buffers. Run
// under -race, a premature recycle shows up as a data race on the payload;
// without -race the content check catches corruption.
func TestWindowStoreReplayHoldsRefAcrossEviction(t *testing.T) {
	const chunkSize = 64
	pool := newChunkPool(chunkSize, 4)
	ws := newWindowStore(chunkSize, 2, pool)
	// Tail semantics: full ring evicts the oldest chunk instead of
	// blocking, so the appender below churns the pool as fast as it can.
	ws.ReleaseAll()

	first := pool.get(chunkSize)
	for i := range first.bytes() {
		first.bytes()[i] = 0xAA
	}
	if _, err := ws.Append(first); err != nil {
		t.Fatal(err)
	}
	held, err := ws.ChunkAt(0) // the slow replay's reference
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			c := pool.get(chunkSize)
			for j := range c.bytes() {
				c.bytes()[j] = byte(i)
			}
			if _, err := ws.Append(c); err != nil {
				return
			}
		}
	}()

	// Read the held payload concurrently with the churn above.
	for i := 0; i < 200; i++ {
		for _, b := range held.bytes() {
			if b != 0xAA {
				t.Fatalf("replayed chunk corrupted: buffer recycled while referenced (byte %#x)", b)
			}
		}
		runtime.Gosched()
	}
	<-done
	for _, b := range held.bytes() {
		if b != 0xAA {
			t.Fatalf("replayed chunk corrupted after churn (byte %#x)", b)
		}
	}
	held.release()
}

// TestWindowStoreTryChunkAt pins the non-blocking contract the batching
// sender relies on.
func TestWindowStoreTryChunkAt(t *testing.T) {
	ws := newWindowStore(4, 4, nil)
	if _, ok := ws.TryChunkAt(0); ok {
		t.Fatal("TryChunkAt must miss on an empty store")
	}
	if err := ws.AppendBytes([]byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	c, ok := ws.TryChunkAt(0)
	if !ok || c.bytes()[0] != 1 {
		t.Fatalf("TryChunkAt(0) = %v, %v", c, ok)
	}
	c.release()
	if _, ok := ws.TryChunkAt(4); ok {
		t.Fatal("TryChunkAt must miss past head")
	}
	ws.Abort(ErrQuit)
	if _, ok := ws.TryChunkAt(0); ok {
		t.Fatal("TryChunkAt must miss after abort")
	}
}
