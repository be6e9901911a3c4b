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
	outcomeOK         serveOutcome = iota // sub-step succeeded, keep going
	outcomeDone                           // full lifecycle completed (PASSED read)
	outcomeRetry                          // transient failure, redial same successor
	outcomeDead                           // successor confirmed dead, advance
	outcomeTerminal                       // node-level failure, stop
	outcomeSuperseded                     // rerank: the target adopted a better parent, release it
)

// maxRetriesPerSuccessor bounds redials of a live-but-flaky successor
// before it is treated as dead.
const maxRetriesPerSuccessor = 5

// maxBatchChunks bounds the entry count of one vectored DATA write
// independently of Options.MaxBatchBytes, so tiny chunk sizes cannot build
// degenerate iovecs.
const maxBatchChunks = 256

// runManager drives the downstream side of the node, for every topology:
// a reconciler running one worker per desired target of the node's view
// (a chain is the view tree:1). Each worker serves its target from the
// replay window, detects its failure, and runs the END → REPORT → PASSED
// epilogue (Fig 5). A dead target's children become desired, which is the
// §III-D skip on a chain and the subtree adoption on a tree. A static
// view never changes, so a static manager wakes only on a worker exit or
// its context, and settles once no worker runs and none is wanted. A node
// left with no completed target is the tail of its branch and closes its
// ring spoke to node 0 (§III-A); node 0 publishes the merged report once
// its own targets completed.
//
// Under re-ranking, reconciliation only ADDS workers (for newly desired
// targets); it never cancels one — displacement is child-driven. A child
// that adopted a better parent closes the old connection, the old
// worker's redial comes back QUIT(excluded), and the worker retires with
// outcomeSuperseded, deferring the target until the view moves again.
func (n *Node) runManager(ctx context.Context) error {
	tctx, cancel := context.WithCancel(ctx)
	defer cancel()
	tr := newChildCursors(n.st)

	type exit struct {
		target  int
		outcome serveOutcome
		err     error
	}
	// Late joiners can grow the worker set past the start membership, so
	// worker exits must never rely on buffer capacity: sends block until
	// the manager (which drains continuously) takes them, and a sentinel
	// releases stragglers once the manager has returned.
	exitc := make(chan exit, len(n.peers()))
	mgrDone := make(chan struct{})
	defer close(mgrDone)
	post := func(ex exit) {
		select {
		case exitc <- ex:
		case <-mgrDone:
		}
	}
	running := make(map[int]bool)
	completed := make(map[int]bool)
	deferred := make(map[int]uint64)
	done := 0
	var firstErr error
	ctxDone := tctx.Done()

	reportSeen := func() bool {
		select {
		case <-n.reportC:
			return true
		default:
			return false
		}
	}

	spawn := func(target int) {
		running[target] = true
		go func() {
			cur := tr.cursor()
			defer cur.close()
			retries := 0
			for {
				if err := tctx.Err(); err != nil {
					post(exit{target, outcomeTerminal, err})
					return
				}
				if n.isFailedPeer(target) {
					post(exit{target, outcomeDead, nil})
					return
				}
				if !n.serves(target) {
					post(exit{target, outcomeSuperseded, nil})
					return
				}
				// Report-phase adoptive dials are quiet: a child that
				// finished its lifecycle and detached must not be named a
				// failure just because the view handed it to us late.
				quiet := n.rerank && n.cfg.Index > 0 && reportSeen()
				outcome, err := n.serveSuccessor(tctx, target, cur, quiet)
				switch outcome {
				case outcomeDone, outcomeDead, outcomeSuperseded:
					post(exit{target, outcome, nil})
					return
				case outcomeRetry:
					retries++
					if retries >= maxRetriesPerSuccessor {
						n.recordFailure(target, fmt.Sprintf("gave up after %d reconnects", retries), n.st.Head())
						retries = 0
					}
				case outcomeTerminal:
					post(exit{target, outcomeTerminal, err})
					return
				default:
					post(exit{target, outcomeTerminal, fmt.Errorf("kascade: internal: unexpected outcome %d", outcome)})
					return
				}
			}
		}()
	}

	for {
		desired := n.desiredTargets(completed, deferred)
		if firstErr == nil && tctx.Err() == nil {
			for _, t := range desired {
				// A scheduler seat serves one cursor: a seated chain
				// node runs one worker at a time.
				if !running[t] && (n.sentry == nil || len(running) == 0) {
					spawn(t)
				}
			}
		}
		if len(running) == 0 && len(desired) == 0 {
			// Currently a view leaf: stop pinning the replay window, or
			// this node's own ingest stalls against a ring nobody reads.
			tr.idle()
		}
		if len(running) == 0 {
			if firstErr != nil {
				return firstErr
			}
			if !n.rerank && len(desired) == 0 {
				break // a static view never hands this node another child
			}
			// A childless node may yet be promoted; it settles only once
			// the report phase began (planning is frozen by then).
			if reportSeen() && len(desired) == 0 {
				// Bar further joins before committing to settle, then
				// re-check once: a joiner grafted between the desired
				// computation and here must be served, not starved.
				n.mu.Lock()
				n.closing = true
				n.mu.Unlock()
				if len(n.desiredTargets(completed, deferred)) == 0 {
					break
				}
				continue
			}
		}
		// Only a re-ranking view can change without a worker exit, so
		// only re-ranking sessions poll for it.
		var timer Timer
		var tick <-chan time.Time
		if n.rerank {
			timer = n.clk.NewTimer(n.opts.RerankInterval)
			tick = timer.C()
		}
		select {
		case ex := <-exitc:
			delete(running, ex.target)
			switch ex.outcome {
			case outcomeDone:
				completed[ex.target] = true
				done++
			case outcomeDead:
				if !n.isFailedPeer(ex.target) {
					// Quiet dial on a finished, detached peer: settled.
					completed[ex.target] = true
				}
			case outcomeSuperseded:
				deferred[ex.target] = n.curView().version
			case outcomeTerminal:
				if firstErr == nil {
					firstErr = ex.err
				}
				cancel()
			}
		case <-n.viewKick:
		case <-tick:
		case <-ctxDone:
			ctxDone = nil // closed for good: waiting on it again would spin
			if firstErr == nil {
				firstErr = tctx.Err()
			}
		}
		if timer != nil {
			timer.Stop()
		}
	}

	// A late joiner must not certify the broadcast until its catch-up
	// backfill reached parity: its PASSED (and hence the session end)
	// waits here. Node 0's manager is still live meanwhile, so catch-up
	// fetches keep being served. No-op for everyone else.
	if err := n.awaitCatchUp(ctx); err != nil {
		return err
	}

	if done == 0 {
		// Every (remaining) child subtree died or this node ended up a
		// leaf: close its own ring spoke.
		return n.finishAsTail(ctx)
	}
	if n.cfg.Index == 0 {
		rep, _ := n.mergedReport()
		n.setRingReport(rep)
		n.markPassed()
		return nil
	}
	n.mu.Lock()
	detected := len(n.detected) > 0
	n.mu.Unlock()
	if detected {
		// A child that died after this node's detections were already
		// folded into the children's REPORT frames may be missing from
		// every surviving spoke. Send a best-effort supplementary spoke
		// before releasing PASSED upstream — node 0 cannot publish until
		// our PASSED propagates, and Report.Merge collapses duplicates.
		rep, _ := n.mergedReport()
		for attempt := 0; attempt < n.opts.DialRetries; attempt++ {
			if n.deliverRingReport(rep) == nil {
				break
			}
		}
	}
	n.markPassed()
	return nil
}

// serves reports whether target is still this node's to serve under
// the current view: a view child, or reachable from here through failed
// peers only (the §III-D subtree adoption, generalised to the re-ranked
// tree). Workers re-check it before every (re)dial so a migrated-away
// child is released instead of being chased.
func (n *Node) serves(target int) bool {
	v := n.curView()
	var walk func(node int) bool
	walk = func(node int) bool {
		for _, c := range v.childrenOf(node, n.treeK) {
			if c == target {
				return true
			}
			if n.isFailedPeer(c) && walk(c) {
				return true
			}
		}
		return false
	}
	return walk(n.cfg.Index)
}

// desiredTargets is the manager-side reconciliation set: the view
// children (expanded through failed peers), minus completed lifecycles
// and targets deferred until a newer view.
func (n *Node) desiredTargets(completed map[int]bool, deferred map[int]uint64) []int {
	v := n.curView()
	var out []int
	seen := make(map[int]bool)
	var expand func(target int)
	expand = func(target int) {
		if seen[target] {
			return
		}
		seen[target] = true
		if n.isFailedPeer(target) {
			for _, g := range v.childrenOf(target, n.treeK) {
				expand(g)
			}
			return
		}
		if completed[target] {
			return
		}
		if dv, ok := deferred[target]; ok && dv >= v.version {
			return
		}
		out = append(out, target)
	}
	for _, c := range v.childrenOf(n.cfg.Index, n.treeK) {
		expand(c)
	}
	return out
}

// serveSuccessor runs one full attempt against the successor at pipeline
// index succ: dial, handshake, answer its GET, stream DATA, send END/QUIT,
// forward the REPORT, and collect PASSED. cur tracks this successor's
// progress for the replay window's low-water mark through the node's
// cursor tracker (the window serves the slowest of its children). The
// caller owns the PASSED bookkeeping:
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
	cur.set(off)

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
			if errors.Is(n.st.AbortCause(), ErrAbandoned) {
				// The node abandoned and shut itself down while this
				// batch was in flight: the successor still has to hear
				// it, or it waits out UpstreamIdleTimeout for a
				// predecessor that never comes.
				_ = w.writeQuit(QuitAbandon)
			}
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
				if fs, ok := n.st.(*fileStore); ok && fs.faulted(werr) {
					// The source file shrank under the write. The store is
					// aborted now, and the redial's GET meets the abort and
					// sends QUIT, which this connection's cut frame cannot.
					return outcomeRetry, nil
				}
				return n.classifyConnErr(ctx, werr, succ, peer.Addr, quiet)
			}
			off += uint64(batchBytes)
			cur.set(off)
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
			cur.set(off)
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
	if !n.serves(succ) {
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
			if want == MsgPassed {
				// A successor that completed its lifecycle detaches right
				// after sending PASSED, so the ping can go unanswered while
				// PASSED is still on its way: look once more before naming
				// the peer.
				w.setReadDeadlineIn(n.opts.PingTimeout)
				if typ, err := w.readType(); err == nil && typ == want {
					return outcomeOK, nil
				}
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
