package core

import (
	"context"
	"errors"
	"fmt"

	"kascade/internal/transport"
)

// This file is the node's recovery plane (§III-D): the upstream rewiring
// loop that survives predecessor replacement, the ping-based liveness
// probe behind the failure detector, PGET gap fetches from node 0, and the
// abandon / step-aside terminal transitions. The data itself flows through
// the data plane (dataplane.go, store.go, downstream.go); this layer only
// decides who feeds it and what happens when they die.

// probe dials addr and plays one PING/PONG exchange; it reports liveness.
func (n *Node) probe(addr string) bool {
	c, err := n.cfg.Network.Dial(addr, n.opts.PingTimeout)
	if err != nil {
		return false
	}
	defer c.Close()
	_ = c.SetDeadline(n.clk.Now().Add(n.opts.PingTimeout))
	w := n.newWire(c)
	if err := w.writeHelloFor(RolePing, n.cfg.Index, n.sid); err != nil {
		return false
	}
	if err := w.writePing(); err != nil {
		return false
	}
	typ, err := w.readType()
	return err == nil && typ == MsgPong
}

// ---------------------------------------------------------------------------
// Upstream side (receivers): ingest DATA from the current predecessor,
// whoever that is after failures.

func (n *Node) upstreamLoop(ctx context.Context) error {
	var cur *upstreamConn
	for {
		if cur == nil {
			var err error
			cur, err = n.awaitUpstream(ctx)
			if err != nil {
				return err
			}
		}
		// The paper's deadlock-avoidance rule: GET is sent on every
		// new connection, carrying our current offset.
		cur.w.setWriteDeadlineIn(n.opts.GetTimeout)
		if err := cur.w.writeGet(n.st.Head()); err != nil {
			_ = cur.w.close()
			cur = nil
			continue
		}
		n.emit(TraceUpstreamAccepted, cur.from, n.st.Head(), "")
		repl, err := n.serveUpstream(ctx, cur)
		if err == errUpstreamDone {
			_ = cur.w.close()
			return nil
		}
		if err != nil {
			_ = cur.w.close()
			return err
		}
		_ = cur.w.close()
		if repl == nil {
			n.emit(TraceUpstreamLost, cur.from, n.st.Head(), "")
		}
		cur = repl // replacement conn, or nil to wait for one
	}
}

func (n *Node) awaitUpstream(ctx context.Context) (*upstreamConn, error) {
	timer := n.clk.NewTimer(n.opts.UpstreamIdleTimeout)
	defer timer.Stop()
	select {
	case uc := <-n.upConns:
		return uc, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-timer.C():
		return nil, fmt.Errorf("kascade: no predecessor connected within %v", n.opts.UpstreamIdleTimeout)
	}
}

// acceptReplacement decides whether a queued predecessor connection should
// supersede the current one: only a predecessor at least as shallow in the
// dissemination tree wins. On the chain the depth IS the pipeline index, so
// this is the paper's "smaller or equal index" rule (equal = the same
// predecessor reconnecting); on trees it admits the dead parent's ancestors
// (strictly shallower) while keeping a node excluded for slowness (§V) —
// or a restarted parent — from stealing its former child back from the
// adopting ancestor.
//
// Re-ranking sessions add the planned-migration case: the dialer proves
// which view motivated the dial (the REORG frame right after its HELLO),
// and the judgement runs against the re-ranked tree — the current view
// parent always wins, a dialer with a stale view never does (a demoted
// ex-parent must not steal its migrated-away child back), and otherwise
// the static depth rule applies on view depths (crash adoption by an
// ancestor).
func (n *Node) acceptReplacement(cur, repl *upstreamConn) bool {
	if !n.rerank {
		return treeDepth(repl.from, n.treeK) <= treeDepth(cur.from, n.treeK)
	}
	proof := n.absorbReorgProof(repl)
	if proof == 0 {
		return false
	}
	v := n.curView()
	if repl.from == v.parentOf(n.cfg.Index, n.treeK) {
		return true
	}
	if proof < v.version {
		return false
	}
	return v.depthOf(repl.from, n.treeK) <= v.depthOf(cur.from, n.treeK)
}

// absorbReorgProof reads the view-proof frame a re-ranking dialer sends
// right after HELLO, installs it if newer, and returns the version it
// carried (0 when the frame is missing or malformed — such a dialer
// cannot be judged and is turned away).
func (n *Node) absorbReorgProof(repl *upstreamConn) uint64 {
	repl.w.setReadDeadlineIn(n.opts.GetTimeout)
	typ, err := repl.w.readType()
	if err != nil {
		return 0
	}
	version, _ := n.readViewFrame(repl.w, typ) // 0 with any error
	return version
}

// serveUpstream processes frames from one predecessor connection. It
// returns (replacement, nil) when the connection broke or was superseded,
// or a terminal error (errUpstreamDone on success).
func (n *Node) serveUpstream(ctx context.Context, uc *upstreamConn) (*upstreamConn, error) {
	w := uc.w
	poll := n.opts.pollInterval()
	for {
		// A better predecessor may be waiting even while the current
		// connection keeps delivering (e.g. after it excluded a slow
		// node between us): check between frames, not only on idle.
		select {
		case repl := <-n.upConns:
			if n.acceptReplacement(uc, repl) {
				return repl, nil
			}
			n.rejectReplacement(repl)
		default:
		}
		w.setReadDeadlineIn(poll)
		typ, err := w.readType()
		if err != nil {
			if transport.IsTimeout(err) {
				select {
				case <-ctx.Done():
					return nil, ctx.Err()
				default:
					continue
				}
			}
			return nil, nil // connection broken; await replacement
		}
		w.setReadDeadlineIn(n.opts.UpstreamIdleTimeout)
		switch typ {
		case MsgData:
			c, size, err := n.readData(w)
			if err != nil {
				return nil, nil
			}
			if err := n.ingest(c, size); err != nil {
				return nil, err
			}
		case MsgEnd:
			total, err := w.readUint64()
			if err != nil {
				return nil, nil
			}
			n.ws.Finish(total)
		case MsgQuit:
			reason, err := w.readQuit()
			if err != nil {
				return nil, nil
			}
			switch reason {
			case QuitUser:
				// Anticipated end of stream: a report follows and
				// the ring still closes (§III-C).
				n.st.Abort(ErrQuit)
				continue
			case QuitExcluded:
				// The predecessor measured us as too slow (§V)
				// and adopted our successor: step aside without
				// cascading a QUIT.
				n.stepAside("excluded by predecessor for low throughput")
				return nil, ErrExcluded
			default:
				return nil, n.abandon("upstream instructed abandon")
			}
		case MsgForget:
			base, err := w.readUint64()
			if err != nil {
				return nil, nil
			}
			if err := n.fetchGap(ctx, n.st.Head(), base); err != nil {
				return nil, n.abandon(fmt.Sprintf("gap [%d,%d) unrecoverable: %v", n.st.Head(), base, err))
			}
			w.setWriteDeadlineIn(n.opts.GetTimeout)
			if err := w.writeGet(n.st.Head()); err != nil {
				return nil, nil
			}
		case MsgReorg2:
			// A new view, piggybacked on the data stream (or the dial-time
			// proof of a connection accepted without replacement judgement),
			// with the member table for late joiners.
			if _, err := n.readViewFrame(w, typ); err != nil {
				return nil, nil
			}
		case MsgReport:
			rep, err := w.readReport()
			if err != nil {
				return nil, nil
			}
			n.setUpReport(rep)
			repl, err := n.awaitPassedPhase(ctx, uc)
			if err != nil {
				return nil, err
			}
			if repl != nil {
				return repl, nil
			}
			w.setWriteDeadlineIn(n.opts.ReportTimeout)
			if err := w.writePassed(); err != nil {
				return nil, nil
			}
			return nil, errUpstreamDone
		default:
			// Unknown frame: treat the connection as corrupt.
			return nil, nil
		}
	}
}

// awaitPassedPhase blocks until this node's own report delivery completed
// (then PASSED can flow upstream), a replacement predecessor appears, or
// the node dies.
func (n *Node) awaitPassedPhase(ctx context.Context, cur *upstreamConn) (*upstreamConn, error) {
	for {
		select {
		case <-n.passedC:
			return nil, nil
		case repl := <-n.upConns:
			if n.acceptReplacement(cur, repl) {
				return repl, nil
			}
			n.rejectReplacement(repl)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// rejectReplacement turns away a would-be predecessor that lost to the
// current one (a farther node trying to steal its former successor back,
// e.g. after an exclusion or a restart). The explicit QUIT(excluded) tells
// the rejected dialer to step aside instead of misreading the closed
// connection as "my successor is dead" — without it, a rejoining node
// would walk the pipeline recording healthy successors as failures.
func (n *Node) rejectReplacement(repl *upstreamConn) {
	repl.w.setWriteDeadlineIn(n.opts.GetTimeout)
	_ = repl.w.writeQuit(QuitExcluded)
	_ = repl.w.close()
}

// fetchGap retrieves the byte range [from,to) directly from the sender via
// PGET (§III-D2): the predecessor's replay window no longer holds the data
// this node still needs, so node 0 is the only remaining source. A FORGET
// answer from node 0 means the data is gone for good (streamed input) and
// the caller must abandon.
func (n *Node) fetchGap(ctx context.Context, from, to uint64) error {
	if from >= to {
		return nil
	}
	n.emit(TraceGapFetchStart, 0, from, fmt.Sprintf("to %d", to))
	n.countRepairFetch()
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		// Restart from wherever the previous attempt got to.
		err := n.fetchGapOnce(n.st.Head(), to)
		if err == nil || errors.Is(err, ErrAbandoned) {
			detail := "ok"
			if err != nil {
				detail = err.Error()
			}
			n.emit(TraceGapFetchDone, 0, n.st.Head(), detail)
			return err
		}
		lastErr = err
	}
	n.emit(TraceGapFetchDone, 0, n.st.Head(), lastErr.Error())
	return lastErr
}

func (n *Node) fetchGapOnce(from, to uint64) error {
	if from >= to {
		return nil
	}
	c, err := n.cfg.Network.Dial(n.peers()[0].Addr, n.opts.DialTimeout)
	if err != nil {
		return fmt.Errorf("kascade: dialing sender for gap fetch: %w", err)
	}
	w := n.newWire(c)
	defer w.close()
	w.setWriteDeadlineIn(n.opts.GetTimeout)
	if err := w.writeHelloFor(RoleFetch, n.cfg.Index, n.sid); err != nil {
		return err
	}
	if err := w.writePGet(from, to); err != nil {
		return err
	}
	for {
		w.setReadDeadlineIn(n.opts.FetchTimeout)
		typ, err := w.readType()
		if err != nil {
			return err
		}
		switch typ {
		case MsgData:
			c, size, err := n.readData(w)
			if err != nil {
				return err
			}
			if err := n.ingest(c, size); err != nil {
				return err
			}
		case MsgEnd:
			if _, err := w.readUint64(); err != nil {
				return err
			}
			if n.st.Head() < to {
				return fmt.Errorf("kascade: gap fetch ended early at %d of %d", n.st.Head(), to)
			}
			return nil
		case MsgForget:
			_, _ = w.readUint64()
			return ErrAbandoned
		default:
			return &errProtocol{want: MsgData, got: typ}
		}
	}
}

// abandon marks the node as failed-by-loss: it stops answering pings
// (detached from its listener or engine) so its predecessor skips it, and
// poisons the store so the downstream manager sends QUIT(abandon) to the
// successor. It returns ErrAbandoned with the first reason given.
func (n *Node) abandon(reason string) error {
	n.mu.Lock()
	already := n.abandoned
	n.abandoned = true
	if !already {
		n.abandonReason = reason
	}
	err := fmt.Errorf("%w: %s", ErrAbandoned, n.abandonReason)
	n.mu.Unlock()
	if already {
		return err
	}
	n.emit(TraceAbandoned, -1, n.bytesIn.Load(), reason)
	n.detach()
	n.st.Abort(err)
	return err
}

// stepAside retires an excluded node: detached from its accept path (pings
// stop, so the pipeline routes around it), store poisoned with ErrExcluded
// so the downstream manager terminates without cascading a QUIT (its
// former successor now belongs to the excluding predecessor).
func (n *Node) stepAside(reason string) {
	n.mu.Lock()
	already := n.abandoned
	n.abandoned = true
	if !already {
		n.abandonReason = reason
	}
	n.mu.Unlock()
	if already {
		return
	}
	n.emit(TraceSteppedAside, -1, n.bytesIn.Load(), reason)
	n.detach()
	n.st.Abort(ErrExcluded)
}
