package core

import (
	"errors"
	"fmt"
)

// This file is the node's accept side: handleWire, the role-dispatch entry
// point the node's Engine routes each inbound connection through once its
// HELLO names this node's session — ping answering, upstream adoption,
// fetch serving, and ring-report collection.

// handleWire adopts one inbound connection whose HELLO is already parsed.
// It is the connHandler entry point of the Engine's accept path.
func (n *Node) handleWire(w *wire, role Role, from int) {
	w.now = n.clk.Now
	switch role {
	case RolePing:
		// Liveness probe (§III-D1): answer promptly even mid-transfer,
		// and say whether this node's own successors hold it back.
		w.setReadDeadlineIn(n.opts.PingTimeout)
		if typ, err := w.readType(); err == nil && typ == MsgPing {
			w.setWriteDeadlineIn(n.opts.PingTimeout)
			_ = w.writePong(n.ws != nil && n.ws.heldBack())
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

// receiveRingReport handles one ring-closing spoke: the report of a node
// left without a completed child (the chain's tail, a tree's leaves), or an
// interior node's supplementary report of late detections. Each spoke is
// acknowledged at once and folded into node 0's report; node 0's manager
// publishes the merged report once every child subtree completed its
// PASSED exchange (runManager), which cannot happen before all spokes land.
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
	n.setUpReport(rep)
	w.setWriteDeadlineIn(n.opts.GetTimeout)
	_ = w.writePassed()
}
