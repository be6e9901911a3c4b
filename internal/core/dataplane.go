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

// ingest stores and sinks one received chunk, consuming the caller's
// reference. The payload is shared, never copied: the window store takes
// one reference, and a second keeps the bytes alive for the sink write.
//
// A chain relay forwards cut-through. When the chunk woke exactly one
// consumer parked in ChunkAt, that consumer is the relay's idle
// forwarder, and ingest yields its processor after the sink write, so the
// chunk leaves for the successor before the next frame is read. Without
// the yield the runtime queues the woken forwarder behind this goroutine,
// which does not block while its upstream's batch is still in the pipe:
// the relay would ingest the whole batch first. A busy forwarder is not
// parked and keeps coalescing. A tree relay that woke several forwarders
// does not yield: a tree already keeps the cores busy, and per-chunk
// trips through the run queue only cost it CPU. Engine-attached sessions
// forward through the scheduler and never park in ChunkAt.
func (n *Node) ingest(c *chunk) error {
	size := uint64(len(c.bytes()))
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
	if sinkErr != nil {
		n.abandon(fmt.Sprintf("sink write failed: %v", sinkErr))
		return ErrAbandoned
	}
	n.emit(TraceChunk, -1, n.bytesIn.Add(size), "")
	if woken == 1 {
		runtime.Gosched()
	}
	return nil
}
