package core

import (
	"fmt"
	"io"
	"runtime"
)

// This file is the ingest half of the node's data plane: chunking the
// source input into the replay window (sender) and storing + sinking
// received chunks (receivers). The companion halves live in store.go /
// chunkpool.go (the window and buffer ownership) and downstream.go (the
// vectored sender that drains the store toward the successor).

// readInput chunks the streamed input into the window store, reading each
// chunk straight into a pool-owned buffer that the store then retains — no
// copy between the input and the replay window.
func (n *Node) readInput() {
	var total uint64
	for {
		c := n.pool.get(n.opts.ChunkSize)
		nr, err := io.ReadFull(n.cfg.Input, c.bytes())
		if nr > 0 {
			c.truncate(nr)
			if _, aerr := n.ws.Append(c); aerr != nil {
				return
			}
			total += uint64(nr)
		} else {
			c.release()
		}
		switch err {
		case nil:
			continue
		case io.EOF, io.ErrUnexpectedEOF:
			n.ws.Finish(total)
			return
		default:
			n.shutdown(fmt.Errorf("kascade: reading input: %w", err))
			return
		}
	}
}

// readData reads the DATA payload that follows on w. It comes back in a
// chunk, except at a leaf whose stage took it whole into its pipe: then c
// is nil and only its size is known.
func (n *Node) readData(w *wire) (c *chunk, size int, err error) {
	if !n.leaf || n.stage == nil {
		c, err = w.readData(n.pool, n.stage)
		if err != nil {
			return nil, 0, err
		}
		return c, len(c.bytes()), nil
	}
	if size, err = w.readDataSize(); err != nil {
		return nil, 0, err
	}
	c, err = n.stage.take(w, n.pool, size)
	return c, size, err
}

// ingest stores and sinks one received payload of size bytes, consuming
// the caller's reference to c. The payload is shared, never copied: the
// window store takes one reference, and a second keeps the bytes alive for
// the sink write. A nil c is a leaf's payload held whole by its stage,
// which moves it into the sink.
//
// A relay forwards cut-through. When the chunk found exactly one woken
// consumer, that consumer is the relay's forwarder, and ingest yields its
// processor after the sink write, so the chunk leaves for the successor
// before the next frame is read. On a chain the forwarder holds a
// scheduler seat, woken when its notify fired at the first byte on an
// engine with no other seat (windowStore.Append, schedEntry.notifyReady):
// the yield lets the engine's worker claim the chunk and hand it over.
// Without the yield the runtime queues the woken goroutine behind this
// one, which does not block while its upstream's batch is still in the
// pipe: the relay would ingest the whole batch first. A forwarder that
// was busy, or a seat armed at a full quantum, keeps batching. A tree
// relay that woke several forwarders parked in ChunkAt does not yield: a
// tree already keeps the cores busy, and per-chunk trips through the run
// queue only cost it CPU.
func (n *Node) ingest(c *chunk, size int) error {
	if c == nil {
		if err := n.ws.tally(uint64(size)); err != nil {
			return err
		}
		return n.sunk(size, 0, n.stage.flush())
	}
	c.retain() // keep the payload readable for the sink after Append
	woken, err := n.ws.Append(c)
	if err != nil {
		c.release()
		return err
	}
	var sinkErr error
	if n.joinSt != nil {
		// Late joiner: the sink only sees contiguous prefixes, so live
		// chunks route through the catch-up serializer (backlogged until
		// the backfill reaches parity, written through afterwards).
		sinkErr = n.joinSt.live(c.bytes())
	} else if n.stage != nil {
		sinkErr = n.stage.deliver(c.bytes())
	} else if n.cfg.Sink != nil {
		_, sinkErr = n.cfg.Sink.Write(c.bytes())
	}
	c.release()
	return n.sunk(size, woken, sinkErr)
}

// sunk ends the ingest of size bytes whose sink write returned sinkErr.
func (n *Node) sunk(size, woken int, sinkErr error) error {
	if sinkErr != nil {
		return n.abandon(fmt.Sprintf("sink write failed: %v", sinkErr))
	}
	n.emit(TraceChunk, -1, n.bytesIn.Add(uint64(size)), "")
	if woken == 1 {
		runtime.Gosched()
	}
	return nil
}
