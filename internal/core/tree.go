package core

import (
	"math"
	"sync"
)

// Tree dissemination (Plan.Topology "tree:<k>", of which the chain is
// tree:1): the ordered peers arranged as a BFS k-ary tree (treeplan.go),
// whose slots the node's view (rerank.go) assigns to peers. Every relay
// serves up to k children from its one replay window, so the window's
// low-water mark must track the slowest child — that is the cursor
// tracker below. Recovery generalises §III-D from predecessor/successor to
// parent/children: when a child is confirmed dead (same stall + ping
// discipline), the manager (runManager, downstream.go) adopts the dead
// child's children, re-grafting the whole failed subtree onto this node.
// The report ring becomes a set of spokes: a node left without a completed
// child delivers its merged report to node 0 directly (finishAsTail), and
// node 0 publishes once every child subtree completed its PASSED exchange.

// childCursor tracks one successor's forward progress against the replay
// window. Every worker registers its cursor with the node's tracker, which
// folds all cursors into one low-water mark.
type childCursor struct {
	tr  *childCursors
	off uint64
}

// set moves the cursor past served bytes, or to a successor-chosen offset
// (initial GET, or the re-GET after a FORGET gap fetch). The offset may
// move backwards — a re-grafted child resumes from wherever its dead
// parent left it.
func (c *childCursor) set(off uint64) { c.tr.update(c, off) }

// close deregisters the cursor so a finished (or dead) child stops
// holding the window back.
func (c *childCursor) close() { c.tr.drop(c) }

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
