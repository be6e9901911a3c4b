package core

import (
	"context"
	"fmt"
	"math"
	"sync"
)

// Tree dissemination (Plan.Topology "tree:<k>"): the same ordered peers as
// the chain, arranged as a BFS k-ary tree (treeplan.go). Every relay serves
// up to k children from its one replay window, so the window's low-water
// mark must track the slowest child — that is the cursor tracker below.
// Recovery generalises §III-D from predecessor/successor to parent/children:
// when a child is confirmed dead (same stall + ping discipline), its worker
// adopts the dead child's children, re-grafting the whole failed subtree
// onto this node. The report ring becomes a set of spokes: leaves deliver
// their merged reports to node 0 directly (finishAsTail, unchanged), and
// node 0 publishes once every child subtree completed its PASSED exchange.

// childCursor tracks one successor's forward progress against the replay
// window. On the chain there is exactly one consumer, so the cursor talks
// to the store directly (st set, tr nil); tree workers register theirs with
// the node's tracker, which folds all cursors into one low-water mark.
type childCursor struct {
	st  store         // direct mode: the chain's single consumer
	tr  *childCursors // tracker mode: one of k tree children
	off uint64
}

// reset repositions the cursor to a successor-chosen offset (initial GET,
// or the re-GET after a FORGET gap fetch). The offset may move backwards —
// a re-grafted child resumes from wherever its dead parent left it.
func (c *childCursor) reset(off uint64) {
	if c.tr != nil {
		c.tr.update(c, off)
		return
	}
	c.st.ResetLowWater(off)
}

// advance moves the cursor forward past served bytes.
func (c *childCursor) advance(off uint64) {
	if c.tr != nil {
		c.tr.update(c, off)
		return
	}
	c.st.SetLowWater(off)
}

// close deregisters a tracked cursor so a finished (or dead) child stops
// holding the window back. Direct-mode cursors have nothing to release.
func (c *childCursor) close() {
	if c.tr != nil {
		c.tr.drop(c)
	}
}

// childCursors folds the progress of all live child cursors into the
// store's single low-water mark: the window retains everything the slowest
// child still needs, and eviction (hence upstream back-pressure) is paced
// by that child. ResetLowWater is used for every recomputation because the
// minimum can move in either direction (a child re-grafting below the
// others, or the slowest child dying).
type childCursors struct {
	st     store
	mu     sync.Mutex
	active map[*childCursor]struct{}
}

func newChildCursors(st store) *childCursors {
	return &childCursors{st: st, active: make(map[*childCursor]struct{})}
}

// cursor returns a new unregistered cursor. Registration happens on its
// first reset: a cursor registered at offset 0 before its child's GET
// arrived would needlessly pin the whole window.
func (t *childCursors) cursor() *childCursor { return &childCursor{tr: t} }

func (t *childCursors) update(c *childCursor, off uint64) {
	t.mu.Lock()
	c.off = off
	t.active[c] = struct{}{}
	min := t.minLocked()
	t.mu.Unlock()
	t.st.ResetLowWater(min)
}

func (t *childCursors) drop(c *childCursor) {
	t.mu.Lock()
	if _, ok := t.active[c]; !ok {
		t.mu.Unlock()
		return
	}
	delete(t.active, c)
	if len(t.active) == 0 {
		// Nothing to retain for: leave the mark where it is. A worker
		// spawned later (subtree adoption) re-registers, and a child
		// resuming below an evicted base recovers via FORGET → PGET.
		t.mu.Unlock()
		return
	}
	min := t.minLocked()
	t.mu.Unlock()
	t.st.ResetLowWater(min)
}

// idle drops retention while no child cursor is registered: a view leaf
// under re-ranking must not pin a window nobody reads — that would block
// its own ingest once the ring fills. A child adopted after eviction
// recovers via FORGET → PGET, so nothing is lost, only refetched.
func (t *childCursors) idle() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.active) > 0 {
		return
	}
	t.st.ResetLowWater(math.MaxUint64)
}

func (t *childCursors) minLocked() uint64 {
	m := uint64(math.MaxUint64)
	for c := range t.active {
		if c.off < m {
			m = c.off
		}
	}
	return m
}

// runTreeManager is the downstream side of a tree node: one worker per
// child, each running the chain's serveSuccessor lifecycle against its own
// cursor. A worker whose child is confirmed dead adopts the child's
// children (recursively for already-dead descendants), exactly the §III-D
// skip generalised to subtrees. The manager completes when every worker
// does; node 0 then publishes the merged ring report, interior nodes relay
// PASSED upstream (plus a best-effort supplementary spoke when they
// detected failures that no surviving leaf report may carry).
func (n *Node) runTreeManager(ctx context.Context) error {
	if n.rerank {
		// Self-reorganizing sessions run the reconciling manager instead:
		// same worker lifecycle, but the child set follows the live view.
		return n.runRerankManager(ctx)
	}
	children := treeChildren(n.cfg.Index, n.treeK, len(n.peers()))
	if len(children) == 0 {
		return n.finishAsTail(ctx)
	}
	tctx, cancel := context.WithCancel(ctx)
	defer cancel()
	tr := newChildCursors(n.st)

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		done     int
		firstErr error
	)
	terminal := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}

	var spawn func(target int)
	spawn = func(target int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cur := tr.cursor()
			defer cur.close()
			retries := 0
			for {
				if err := tctx.Err(); err != nil {
					terminal(err)
					return
				}
				if n.isFailedPeer(target) {
					// Re-graft the dead child's children onto this node:
					// live ones get their own worker, dead ones recurse so
					// the whole failed subtree is re-served (§III-D).
					for _, g := range treeChildren(target, n.treeK, len(n.peers())) {
						spawn(g)
					}
					return
				}
				outcome, err := n.serveSuccessor(tctx, target, cur, false)
				switch outcome {
				case outcomeDone:
					mu.Lock()
					done++
					mu.Unlock()
					return
				case outcomeRetry:
					retries++
					if retries >= maxRetriesPerSuccessor {
						n.recordFailure(target, fmt.Sprintf("gave up after %d reconnects", retries), n.st.Head())
						retries = 0
					}
				case outcomeDead:
					retries = 0
					// recordFailure already happened at the detection site;
					// the next iteration adopts the subtree.
				case outcomeTerminal:
					terminal(err)
					return
				default:
					terminal(fmt.Errorf("kascade: internal: unexpected outcome %d", outcome))
					return
				}
			}
		}()
	}
	for _, c := range children {
		spawn(c)
	}
	wg.Wait()

	if firstErr != nil {
		return firstErr
	}
	if done == 0 {
		// Every child subtree died before completing: this node is the
		// tail of its branch and closes its own ring spoke.
		return n.finishAsTail(ctx)
	}
	if n.cfg.Index == 0 {
		// All surviving leaves have delivered their spokes: a leaf's report
		// arrives at node 0 before its PASSED flows upward, and PASSED
		// reaching us is what completed the workers above.
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
		// folded into the childrens' REPORT frames may be missing from
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
