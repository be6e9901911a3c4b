package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"kascade/internal/transport"
)

// serveOutcome classifies how one successor-serving attempt ended.
type serveOutcome int

const (
	outcomeOK       serveOutcome = iota // sub-step succeeded, keep going
	outcomeDone                         // full lifecycle completed (PASSED read)
	outcomeRetry                        // transient failure, redial same successor
	outcomeDead                         // successor confirmed dead, advance
	outcomeTerminal                     // node-level failure, stop
	outcomeSuperseded                   // rerank: the target adopted a better parent, release it
)

// maxRetriesPerSuccessor bounds redials of a live-but-flaky successor
// before it is treated as dead.
const maxRetriesPerSuccessor = 5

// maxBatchChunks bounds the entry count of one vectored DATA write
// independently of Options.MaxBatchBytes, so tiny chunk sizes cannot build
// degenerate iovecs.
const maxBatchChunks = 256

// runManager drives the downstream side of the node: it serves the current
// successor from the store, detects successor failures, skips dead nodes
// (§III-D2), and runs the END → REPORT → PASSED epilogue (Fig 5). When no
// alive successor remains, the node is the pipeline tail and closes the
// ring by delivering the report to node 0 (§III-A). Tree plans (treeK > 1)
// serve several children from the same window and dispatch to the tree
// manager (tree.go); the chain below is the k = 1 special case.
func (n *Node) runManager(ctx context.Context) error {
	if n.treeK > 1 {
		return n.runTreeManager(ctx)
	}
	succ := n.cfg.Index + 1
	retries := 0
	cur := &childCursor{st: n.st} // sole consumer: low-water goes straight to the store
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		for succ < len(n.peers()) && n.isFailedPeer(succ) {
			succ++
			retries = 0
		}
		if succ >= len(n.peers()) {
			return n.finishAsTail(ctx)
		}
		outcome, err := n.serveSuccessor(ctx, succ, cur, false)
		switch outcome {
		case outcomeDone:
			n.markPassed()
			return nil
		case outcomeRetry:
			retries++
			if retries >= maxRetriesPerSuccessor {
				n.recordFailure(succ, fmt.Sprintf("gave up after %d reconnects", retries), n.st.Head())
				retries = 0
			}
		case outcomeDead:
			retries = 0
			// recordFailure already happened at the detection site;
			// the skip loop above advances past it.
		case outcomeTerminal:
			return err
		default:
			return fmt.Errorf("kascade: internal: unexpected outcome %d", outcome)
		}
	}
}

// serveSuccessor runs one full attempt against the successor at pipeline
// index succ: dial, handshake, answer its GET, stream DATA, send END/QUIT,
// forward the REPORT, and collect PASSED. cur tracks this successor's
// progress for the replay window's low-water mark — directly on the chain,
// through the node's cursor tracker on trees (where the window must serve
// the slowest of k children). The caller owns the PASSED bookkeeping:
// outcomeDone only means this successor's lifecycle completed.
//
// quiet suppresses failure naming until the successor proves it is in a
// serving relationship with us (its GET arrives): re-ranking managers dial
// adoptively during the report phase, when a target may simply have
// finished its lifecycle and detached — that is not a death.
func (n *Node) serveSuccessor(ctx context.Context, succ int, cur *childCursor, quiet bool) (serveOutcome, error) {
	peer := n.peers()[succ]
	conn, err := n.dialPeer(peer.Addr)
	if err != nil {
		if quiet || n.rerankFinished(succ) {
			// Finished nodes close their listener; a refused dial to one
			// whose ring spoke already landed at node 0 is a completed
			// lifecycle, not a death.
			return outcomeDead, nil
		}
		n.recordFailure(succ, fmt.Sprintf("dial failed: %v", err), n.st.Head())
		return outcomeDead, nil
	}
	w := n.newWire(conn)
	w.out = &stallWriter{
		conn:   conn,
		now:    n.clk.Now,
		stall:  n.opts.WriteStallTimeout,
		budget: n.opts.FetchTimeout,
		probe:  func() bool { return n.probe(peer.Addr) },
	}
	defer w.close()

	if werr := w.writeHelloFor(RoleData, n.cfg.Index, n.sid); werr != nil {
		return n.classifyConnErr(ctx, werr, succ, peer.Addr, quiet)
	}
	var sentView uint64
	if n.rerank {
		// Proof frame: the view that motivated this dial, so the child's
		// acceptReplacement judges us against it instead of a stale one.
		v := n.curView()
		if werr := n.writeView(w, v); werr != nil {
			return n.classifyConnErr(ctx, werr, succ, peer.Addr, quiet)
		}
		sentView = v.version
	}
	off, out, err := n.readGet(ctx, w, succ, peer.Addr, n.opts.GetTimeout, quiet)
	if out != outcomeOK {
		return out, err
	}
	quiet = false // the GET arrived: a real serving relationship from here on
	cur.reset(off)

	// §V extension: measure the successor's drain rate (time actually
	// spent inside writes, so a data-starved pipeline is never mistaken
	// for a slow node) and exclude it when MinThroughput is configured.
	// The same busy-time samples feed the link's EWMA meter (the rerank
	// planner's evidence) and the engine scheduler's adaptive quanta.
	meter := n.rates.meter(succ)
	var window rateWindow

	// scratch backs the direct-path batch; scheduled turns arrive with
	// their own claimed batch. Either way the chunks come back retained
	// and are released right after the vectored write. Sized to the
	// largest batch the byte cap allows so it never regrows per batch.
	batchCap := n.opts.MaxBatchBytes/n.opts.ChunkSize + 1
	if batchCap > maxBatchChunks {
		batchCap = maxBatchChunks
	}
	if batchCap < 1 {
		batchCap = 1
	}
	scratch := make([]*chunk, 0, batchCap)
	release := func(cs []*chunk) {
		for i, c := range cs {
			c.release()
			cs[i] = nil
		}
	}

	// fe is errors.As's target in the loop below; declared here because it
	// escapes, and inside the loop that is one allocation per batch.
	var fe *ForgetError

streamLoop:
	for {
		if cerr := ctx.Err(); cerr != nil {
			return outcomeTerminal, cerr
		}
		if n.rerank {
			// Piggyback new views on the data stream: children learn the
			// plan from their parent before the batch that follows it.
			if v := n.curView(); v.version > sentView {
				if werr := n.writeView(w, v); werr != nil {
					return n.classifyConnErr(ctx, werr, succ, peer.Addr, quiet)
				}
				sentView = v.version
			}
		}
		batch, batchBytes, cerr := n.nextBatch(off, scratch[:0])
		switch {
		case cerr == nil:
			wStart := n.clk.Now()
			werr := w.writeDataBatch(batch)
			busy := n.clk.Now().Sub(wStart)
			release(batch)
			if werr != nil {
				return n.classifyConnErr(ctx, werr, succ, peer.Addr, quiet)
			}
			off += uint64(batchBytes)
			cur.advance(off)
			meter.sample(batchBytes, busy)
			n.sentry.observeRate(meter.rate())
			window.observe(batchBytes, busy, n.opts.SlowNodeGrace)
			if rate, exclude := window.cull(n.opts.SlowNodeGrace, n.opts.MinThroughput); exclude {
				// The paper's §V malfunctioning-node case: tell
				// the slow node to step aside and route around
				// it like a failure.
				_ = w.writeQuit(QuitExcluded)
				n.recordFailure(succ, fmt.Sprintf(
					"excluded: draining %.0f B/s, below the %.0f B/s threshold",
					rate, n.opts.MinThroughput), off)
				return outcomeDead, nil
			}
		case errors.As(cerr, &fe):
			// The successor resumed below our window: answer FORGET
			// and wait for its re-GET once it fetched the gap from
			// node 0 (§III-D2).
			if werr := w.writeForget(fe.Base); werr != nil {
				return n.classifyConnErr(ctx, werr, succ, peer.Addr, quiet)
			}
			newOff, out, gerr := n.readGet(ctx, w, succ, peer.Addr, n.opts.FetchTimeout, quiet)
			if out != outcomeOK {
				return out, gerr
			}
			off = newOff
			cur.reset(off)
		case cerr == io.EOF:
			end, _ := n.st.End()
			if werr := w.writeEnd(end); werr != nil {
				return n.classifyConnErr(ctx, werr, succ, peer.Addr, quiet)
			}
			break streamLoop
		case errors.Is(cerr, ErrQuit):
			// User interruption: anticipated end of stream; the
			// report still follows (§III-C).
			if werr := w.writeQuit(QuitUser); werr != nil {
				return n.classifyConnErr(ctx, werr, succ, peer.Addr, quiet)
			}
			break streamLoop
		case errors.Is(cerr, ErrExcluded):
			// This node was excluded (§V): step aside silently; the
			// excluding predecessor adopts our successor, so no QUIT
			// cascade.
			return outcomeTerminal, cerr
		default:
			// Abandon or internal shutdown: cascade QUIT downstream
			// (best effort) and stop.
			_ = w.writeQuit(QuitAbandon)
			return outcomeTerminal, cerr
		}
	}

	rep, rerr := n.awaitReport(ctx)
	if rerr != nil {
		return outcomeTerminal, rerr
	}
	if werr := w.writeReport(rep); werr != nil {
		return n.classifyConnErr(ctx, werr, succ, peer.Addr, quiet)
	}
	out, err = n.expectType(ctx, w, succ, peer.Addr, MsgPassed, n.opts.ReportTimeout, quiet)
	if out != outcomeOK {
		return out, err
	}
	return outcomeDone, nil
}

// nextBatch produces the next forwardable chunk batch starting at off.
// Engine-attached nodes park here until the engine's weighted scheduler
// hands them a turn — a claimed chunk batch, or the store's terminal
// condition — so a host full of overlapping sessions wakes each forwarder
// once per batch instead of once per chunk. Nodes owning their listener
// (and sessions whose engine shut down mid-stream) park in the store's
// ChunkAt and coalesce whatever is buffered behind the first chunk. On a
// chain relay the lone parked forwarder is handed the processor as each
// chunk lands (Node.ingest), so an idle successor gets one chunk per
// write and a lagging one gets a batch. The returned chunks are retained;
// the caller releases them after the write.
func (n *Node) nextBatch(off uint64, scratch []*chunk) ([]*chunk, int, error) {
	if t := n.sentry.next(off); !t.inline {
		return t.batch, t.n, t.err
	}
	first, err := n.st.ChunkAt(off)
	if err != nil {
		return nil, 0, err
	}
	// Coalesce everything already buffered behind the first chunk, up to
	// the batch budget: one writev instead of 2×k socket writes. Admit
	// another chunk only while a full-size one still fits (chunks are at
	// most ChunkSize), so the batch never overshoots the byte cap.
	batch := append(scratch, first)
	total := len(first.bytes())
	for len(batch) < maxBatchChunks && total+n.opts.ChunkSize <= n.opts.MaxBatchBytes {
		next, ok := n.st.TryChunkAt(off + uint64(total))
		if !ok {
			break
		}
		batch = append(batch, next)
		total += len(next.bytes())
	}
	return batch, total, nil
}

// finishAsTail closes the pipeline ring: the tail delivers the aggregated
// report to node 0 and unblocks the PASSED chain.
func (n *Node) finishAsTail(ctx context.Context) error {
	n.mu.Lock()
	n.tail = true
	n.mu.Unlock()
	// No successor will ever replay from this node's window.
	n.st.ReleaseAll()

	rep, err := n.awaitReport(ctx)
	if err != nil {
		return err
	}
	if n.cfg.Index == 0 {
		// Degenerate ring: every receiver is gone (or there were
		// none); the sender's own view is the final report.
		n.setRingReport(rep)
		n.markPassed()
		return nil
	}
	var lastErr error
	for attempt := 0; attempt < n.opts.DialRetries; attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		if lastErr = n.deliverRingReport(rep); lastErr == nil {
			n.markPassed()
			return nil
		}
	}
	return fmt.Errorf("kascade: delivering final report to sender: %w", lastErr)
}

func (n *Node) deliverRingReport(rep *Report) error {
	c, err := n.cfg.Network.Dial(n.peers()[0].Addr, n.opts.DialTimeout)
	if err != nil {
		return err
	}
	w := n.newWire(c)
	defer w.close()
	w.setWriteDeadlineIn(n.opts.ReportTimeout)
	if err := w.writeHelloFor(RoleReport, n.cfg.Index, n.sid); err != nil {
		return err
	}
	if err := w.writeReport(rep); err != nil {
		return err
	}
	w.setReadDeadlineIn(n.opts.ReportTimeout)
	typ, err := w.readType()
	if err != nil {
		return err
	}
	if typ != MsgPassed {
		return &errProtocol{want: MsgPassed, got: typ}
	}
	return nil
}

// dialPeer dials with retries; a brief pause between attempts covers
// startup races without masking real deaths.
func (n *Node) dialPeer(addr string) (transport.Conn, error) {
	var lastErr error
	for i := 0; i < n.opts.DialRetries; i++ {
		c, err := n.cfg.Network.Dial(addr, n.opts.DialTimeout)
		if err == nil {
			return c, nil
		}
		lastErr = err
		n.clk.Sleep(n.opts.pollInterval())
	}
	return nil, lastErr
}

// classifyConnErr decides what a failed write/read on the successor
// connection means, using the paper's ping discipline: a ping answered
// means "alive, reconnect and resume via GET"; unanswered means dead.
// quiet withholds the failure record (report-phase adoptive dials).
func (n *Node) classifyConnErr(ctx context.Context, err error, succ int, addr string, quiet bool) (serveOutcome, error) {
	if cerr := ctx.Err(); cerr != nil {
		return outcomeTerminal, cerr
	}
	if n.rerank && !n.rerankServes(succ) {
		// The view moved this child away mid-serve: the broken
		// connection is displacement (or the child finishing under its
		// new parent), not a crash. Naming it a failure here is the
		// re-ranked tree's false-positive mode.
		return outcomeSuperseded, nil
	}
	if n.rerankFinished(succ) {
		// The child's ring spoke already landed: its lifecycle is over
		// and the broken connection is teardown, not a crash.
		return outcomeSuperseded, nil
	}
	var pd *peerDeadError
	if errors.As(err, &pd) {
		if !quiet {
			n.recordFailure(succ, pd.Error(), n.st.Head())
		}
		return outcomeDead, nil
	}
	if n.probe(addr) {
		return outcomeRetry, nil
	}
	if !quiet {
		n.recordFailure(succ, fmt.Sprintf("connection failed: %v", err), n.st.Head())
	}
	return outcomeDead, nil
}

// expectType waits for one frame of the wanted type, probing the peer on
// stalls. budget bounds the total patience with a live-but-silent peer.
func (n *Node) expectType(ctx context.Context, w *wire, succ int, addr string, want MsgType, budget time.Duration, quiet bool) (serveOutcome, error) {
	stall := n.opts.WriteStallTimeout
	remaining := budget
	for {
		if cerr := ctx.Err(); cerr != nil {
			return outcomeTerminal, cerr
		}
		w.setReadDeadlineIn(stall)
		typ, err := w.readType()
		if err == nil {
			if typ == want {
				return outcomeOK, nil
			}
			if typ == MsgQuit {
				// QUIT(excluded) on a dialed data connection means the
				// successor rejected us in favour of a closer
				// predecessor (a rejoin or post-exclusion steal
				// attempt): step aside, the successor is healthy.
				if reason, rerr := w.readQuit(); rerr == nil && reason == QuitExcluded {
					if n.rerank {
						// Under re-ranking this is the planned-migration
						// handoff: the target adopted a better parent and
						// turned our redial away. Release it — nobody is
						// excluded and nobody steps aside.
						return outcomeSuperseded, nil
					}
					n.stepAside("superseded: successor is served by a closer predecessor")
					return outcomeTerminal, ErrExcluded
				}
			}
			if !quiet {
				n.recordFailure(succ, (&errProtocol{want: want, got: typ}).Error(), n.st.Head())
			}
			return outcomeDead, nil
		}
		if transport.IsTimeout(err) {
			remaining -= stall
			if remaining > 0 && n.probe(addr) {
				continue
			}
			if n.rerankFinished(succ) {
				// The child's ring spoke landed while we waited: it
				// finished its copy and detached, it did not die.
				return outcomeSuperseded, nil
			}
			if !quiet {
				reason := fmt.Sprintf("stalled awaiting %v, ping unanswered", want)
				if remaining <= 0 {
					reason = fmt.Sprintf("no %v within %v", want, budget)
				}
				n.recordFailure(succ, reason, n.st.Head())
			}
			return outcomeDead, nil
		}
		return n.classifyConnErr(ctx, err, succ, addr, quiet)
	}
}

// readGet awaits a GET frame and returns its offset.
func (n *Node) readGet(ctx context.Context, w *wire, succ int, addr string, budget time.Duration, quiet bool) (uint64, serveOutcome, error) {
	out, err := n.expectType(ctx, w, succ, addr, MsgGet, budget, quiet)
	if out != outcomeOK {
		return 0, out, err
	}
	w.setReadDeadlineIn(n.opts.GetTimeout)
	off, rerr := w.readUint64()
	if rerr != nil {
		out, err := n.classifyConnErr(ctx, rerr, succ, addr, quiet)
		return 0, out, err
	}
	return off, outcomeOK, nil
}

// stallWriter writes to the successor connection with the paper's failure
// detector built in: a write that stalls past the timeout triggers a PING;
// an answered ping means the successor is alive (e.g. a node further down
// crashed, or the network is congested) so the write resumes where it
// stopped; an unanswered ping confirms death (§III-D1).
type stallWriter struct {
	conn   transport.Conn
	now    func() time.Time
	stall  time.Duration
	budget time.Duration // total patience with a live-but-stuck peer
	probe  func() bool

	vec    [][]byte // scratch copy of WriteBuffers input, consumed on resume
	single [1][]byte
}

func (s *stallWriter) Write(p []byte) (int, error) {
	s.single[0] = p
	n, err := s.WriteBuffers(s.single[:])
	return int(n), err
}

// WriteBuffers runs a vectored write through the same stall detector as
// Write: a timed-out batch is resumed byte-exactly from where it stopped,
// and a stall triggers the ping probe before the successor is declared
// dead. It implements transport.BuffersWriter so wire.writeDataBatch keeps
// the writev path even through the failure detector.
func (s *stallWriter) WriteBuffers(bufs [][]byte) (int64, error) {
	// Work on a scratch copy: the backend consumes entries in place as it
	// writes (the BuffersWriter contract), and a deadline can leave the
	// batch partially sent mid-slice.
	if cap(s.vec) < len(bufs) {
		s.vec = make([][]byte, 0, cap(bufs))
	}
	s.vec = append(s.vec[:0], bufs...)
	pending := s.vec
	var total int64
	remaining := s.budget
	for {
		for len(pending) > 0 && len(pending[0]) == 0 {
			pending = pending[1:]
		}
		if len(pending) == 0 {
			return total, nil
		}
		_ = s.conn.SetWriteDeadline(s.now().Add(s.stall))
		nn, err := transport.WriteBuffers(s.conn, pending)
		total += nn
		if err == nil {
			continue
		}
		if transport.IsTimeout(err) {
			if nn > 0 {
				remaining = s.budget // progress resets patience
			}
			remaining -= s.stall
			if remaining <= 0 {
				return total, &peerDeadError{reason: fmt.Sprintf("write made no progress for %v", s.budget)}
			}
			if s.probe() {
				continue
			}
			return total, &peerDeadError{reason: "write stalled and ping unanswered", cause: err}
		}
		return total, err
	}
}
