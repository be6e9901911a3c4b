package core

import (
	"errors"
	"fmt"

	"kascade/internal/transport"
)

// This file is the node's accept side: connection dispatch for nodes that
// own their listener, and the role-dispatch entry point (handleWire) that
// both that path and the shared Engine route through — ping answering,
// upstream adoption, fetch serving, and ring-report collection.

// acceptLoop serves the node's dedicated listener. Engine-attached nodes
// have no accept loop of their own: the engine parses the HELLO and calls
// handleWire directly.
func (n *Node) acceptLoop() {
	for {
		c, err := n.cfg.Listener.Accept()
		if err != nil {
			// Listener gone: host killed or shutting down. If the
			// node is still mid-transfer this is fatal for it.
			n.listenerFailed(err)
			return
		}
		go n.handleConn(c)
	}
}

// handleConn parses the opening HELLO (v1 or v2) of one inbound connection
// on the node's own listener. A v1 dialer is always accepted (the node is
// the only session behind this listener); a v2 dialer must name this
// node's session — mismatches are routing errors and are dropped.
func (n *Node) handleConn(c transport.Conn) {
	w := n.newWire(c)
	w.setReadDeadlineIn(n.opts.GetTimeout)
	role, from, sid, err := w.readHelloAny()
	if err != nil || (sid != 0 && sid != n.sid) {
		_ = w.close()
		return
	}
	n.handleWire(w, role, from)
}

// handleWire adopts one inbound connection whose HELLO is already parsed.
// It is the connHandler entry point the shared Engine routes through, and
// the tail of handleConn for nodes owning their listener.
func (n *Node) handleWire(w *wire, role Role, from int) {
	w.now = n.clk.Now
	switch role {
	case RolePing:
		// Liveness probe (§III-D1): answer promptly even mid-transfer.
		w.setReadDeadlineIn(n.opts.PingTimeout)
		if typ, err := w.readType(); err == nil && typ == MsgPing {
			w.setWriteDeadlineIn(n.opts.PingTimeout)
			_ = w.writePong()
		}
		_ = w.close()
	case RoleData:
		w.setReadDeadlineIn(0)
		select {
		case n.upConns <- &upstreamConn{w: w, from: from}:
		case <-n.ictx.Done():
			_ = w.close()
		}
	case RoleFetch:
		if n.cfg.Index != 0 {
			_ = w.close()
			return
		}
		n.serveFetch(w, from)
	case RoleReport:
		if n.cfg.Index != 0 {
			_ = w.close()
			return
		}
		n.receiveRingReport(w, from)
	case RoleRate:
		// Re-ranking rate spokes terminate at the planner on node 0.
		if n.cfg.Index != 0 || n.reorg == nil {
			_ = w.close()
			return
		}
		n.serveRateSpoke(w)
	case RoleJoin:
		// Late-join admission terminates at the planner on node 0.
		if n.cfg.Index != 0 {
			_ = w.close()
			return
		}
		n.serveJoin(w)
	default:
		_ = w.close()
	}
}

// serveFetch answers a PGET range request from the sender's store (§III-D2).
func (n *Node) serveFetch(w *wire, from int) {
	defer w.close()
	w.setReadDeadlineIn(n.opts.GetTimeout)
	typ, err := w.readType()
	if err != nil || typ != MsgPGet {
		return
	}
	lo, hi, err := w.readPGet()
	if err != nil {
		return
	}
	for off := lo; off < hi; {
		c, err := n.st.ChunkAt(off)
		var fe *ForgetError
		switch {
		case errors.As(err, &fe):
			// Streamed source recycled its buffer: the requester
			// must abandon. Record it now so the sender's final
			// report accounts for the cascade (§III-D2).
			w.setWriteDeadlineIn(n.opts.GetTimeout)
			_ = w.writeForget(fe.Base)
			n.recordFailure(from, fmt.Sprintf("abandoned: offset %d recycled at sender (min %d)", off, fe.Base), off)
			return
		case err != nil:
			return
		}
		payload := c.bytes()
		if rem := hi - off; uint64(len(payload)) > rem {
			payload = payload[:rem]
		}
		w.setWriteDeadlineIn(n.opts.FetchTimeout)
		werr := w.writeData(payload)
		c.release()
		if werr != nil {
			return
		}
		off += uint64(len(payload))
	}
	w.setWriteDeadlineIn(n.opts.GetTimeout)
	_ = w.writeEnd(hi)
}

// receiveRingReport handles the last node's ring-closing connection.
func (n *Node) receiveRingReport(w *wire, from int) {
	defer w.close()
	w.setReadDeadlineIn(n.opts.ReportTimeout)
	typ, err := w.readType()
	if err != nil || typ != MsgReport {
		return
	}
	rep, err := w.readReport()
	if err != nil {
		return
	}
	if n.reorg != nil && from > 0 && from < len(n.peers()) {
		// A spoke proves its sender finished: feed the re-ranking planner
		// so it stops considering the node for migrations (its rate
		// reports have ceased and would otherwise stay mid-stream stale).
		n.reorg.noteSpoke(from)
	}
	if n.treeK > 1 {
		// Tree fan-out: several leaves (plus interior nodes with late
		// detections) each close their own ring spoke. Acknowledge each
		// immediately and accumulate; the tree manager publishes the
		// merged report once every child subtree completed its PASSED
		// exchange (tree.go), which cannot happen before all spokes land.
		n.setUpReport(rep)
		w.setWriteDeadlineIn(n.opts.GetTimeout)
		_ = w.writePassed()
		return
	}
	// Fold in the sender's own observations (e.g. abandons recorded by
	// the fetch server) before publishing.
	n.mu.Lock()
	rep.Merge(&Report{Failures: append([]Failure(nil), n.detected...)})
	n.mu.Unlock()
	n.setRingReport(rep)
	w.setWriteDeadlineIn(n.opts.GetTimeout)
	_ = w.writePassed()
}
