package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"
)

// Snow-style self-reorganization (Options.Rerank, tree topologies only):
// instead of freezing the dissemination tree at START, the session
// continuously re-ranks it mid-broadcast. Every node measures its
// downstream link rates (ratemeter.go) and its own ingest rate, reports
// them to node 0 over periodic RATE spokes, and node 0 folds the reports
// into rank-ordered re-grafting plans: a slow interior node swaps places
// with the fastest occupant of the deepest leaf slot in its subtree, so
// fast nodes migrate toward the root and slow nodes sink to the leaves.
//
// A plan is a treeView — an immutable slot-occupant permutation over the
// BFS k-ary shape (treeplan.go); the shape never changes, only who sits
// where. Views propagate three ways: piggybacked REORG frames on live
// data connections (a parent pushes the new version before its next
// batch), a REORG reply on every rate spoke, and a proof frame every
// re-ranking dialer sends right after HELLO — so a child judging a
// would-be replacement parent (acceptReplacement, recovery.go) always
// judges against the view that motivated the dial. Migration itself is
// executed by the same probe/replacement/GET machinery tree recovery
// uses: the new parent dials, the child adopts it and closes the old
// connection, and the old parent's redial is turned away with
// QUIT(excluded), which re-ranking nodes read as "superseded", not as an
// exclusion of themselves.

// treeView is one generation of the re-ranked tree: slot s of the BFS
// shape is held by the node with original pipeline index occupant[s];
// slotOf is the inverse permutation. Views are immutable — a new plan is
// a new treeView with a higher version. Version 1 is the identity (the
// START-time tree).
type treeView struct {
	version  uint64
	occupant []int32
	slotOf   []int32
}

func identityView(np int) *treeView {
	v := &treeView{
		version:  1,
		occupant: make([]int32, np),
		slotOf:   make([]int32, np),
	}
	for i := range v.occupant {
		v.occupant[i] = int32(i)
		v.slotOf[i] = int32(i)
	}
	return v
}

// viewFromOccupants builds an immutable view from an occupant table
// (callers own occ; it is not copied).
func viewFromOccupants(version uint64, occ []int32) *treeView {
	v := &treeView{version: version, occupant: occ, slotOf: make([]int32, len(occ))}
	for s, o := range occ {
		v.slotOf[o] = int32(s)
	}
	return v
}

// unknownDepth is reported for a node a view has no slot for (a joiner
// admitted after the view was cut): deeper than anything real, so depth
// comparisons treat the unknown node as the least-attractive parent.
const unknownDepth = 1 << 30

// knows reports whether the view has a slot for node. Views and the
// member table can briefly disagree while a membership extension
// propagates, so every slot lookup is bounds-checked through here.
func (v *treeView) knows(node int) bool {
	return node >= 0 && node < len(v.slotOf)
}

// parentOf returns the node currently feeding `node` (-1 for the root or
// a node this view has no slot for).
func (v *treeView) parentOf(node, k int) int {
	if !v.knows(node) {
		return -1
	}
	ps := treeParent(int(v.slotOf[node]), k)
	if ps < 0 {
		return -1
	}
	return int(v.occupant[ps])
}

// childrenOf returns the nodes `node` currently feeds. The tree shape is
// the view's own slot count — membership may already be larger.
func (v *treeView) childrenOf(node, k int) []int {
	if !v.knows(node) {
		return nil
	}
	slots := treeChildren(int(v.slotOf[node]), k, len(v.occupant))
	if len(slots) == 0 {
		return nil
	}
	out := make([]int, len(slots))
	for i, s := range slots {
		out[i] = int(v.occupant[s])
	}
	return out
}

// depthOf returns `node`'s current distance from the root.
func (v *treeView) depthOf(node, k int) int {
	if !v.knows(node) {
		return unknownDepth
	}
	return treeDepth(int(v.slotOf[node]), k)
}

// curView returns the node's current view (non-nil iff rerank is on).
func (n *Node) curView() *treeView { return n.view.Load() }

// installView publishes v if it is newer than the current view and wakes
// the re-graft manager. Reports whether v was installed.
func (n *Node) installView(v *treeView) bool {
	for {
		cur := n.view.Load()
		if cur != nil && cur.version >= v.version {
			return false
		}
		if n.view.CompareAndSwap(cur, v) {
			n.kickRerank()
			return true
		}
	}
}

// installWireView validates and installs a view received off the wire.
// Anything that is not a permutation keeping node 0 in slot 0 is dropped.
// The slot count may exceed the start plan (late joiners) but never the
// member table — REORG2 installs the members first.
func (n *Node) installWireView(version uint64, occ []int32) bool {
	if !n.rerank {
		return false
	}
	if len(occ) < n.basePeers || len(occ) > len(n.peers()) {
		return false
	}
	if len(occ) == 0 || occ[0] != 0 {
		return false
	}
	seen := make([]bool, len(occ))
	for _, o := range occ {
		if o < 0 || int(o) >= len(occ) || seen[o] {
			return false
		}
		seen[o] = true
	}
	return n.installView(viewFromOccupants(version, occ))
}

// writeView frames the view for the wire: a plain REORG while the view
// fits the start plan (byte-identical to the pre-JOIN protocol), REORG2
// carrying the member table once late joiners hold slots beyond it.
func (n *Node) writeView(w *wire, v *treeView) error {
	if len(v.occupant) <= n.basePeers {
		return w.writeReorg(v.version, v.occupant)
	}
	peers := n.peers()
	members := make([]wireMember, 0, len(v.occupant)-n.basePeers)
	for i := n.basePeers; i < len(v.occupant) && i < len(peers); i++ {
		members = append(members, wireMember{Index: i, Name: peers[i].Name, Addr: peers[i].Addr})
	}
	return w.writeReorg2(v.version, v.occupant, members)
}

// readViewFrame absorbs the body of a REORG or REORG2 frame (typ, already
// read) and installs the view it carries; REORG2 extends the member table
// first so the view never references an unknown peer.
func (n *Node) readViewFrame(w *wire, typ MsgType) error {
	switch typ {
	case MsgReorg:
		version, occ, err := w.readReorg()
		if err != nil {
			return err
		}
		n.installWireView(version, occ)
	case MsgReorg2:
		version, occ, members, err := w.readReorg2()
		if err != nil {
			return err
		}
		if err := n.addMembers(members); err != nil {
			return err
		}
		n.installWireView(version, occ)
	default:
		return &errProtocol{want: MsgReorg, got: typ}
	}
	return nil
}

// kickRerank nudges the re-graft manager to reconcile against the
// current view (non-blocking; coalesces).
func (n *Node) kickRerank() {
	if n.viewKick == nil {
		return
	}
	select {
	case n.viewKick <- struct{}{}:
	default:
	}
}

// ReorgState reports the node's re-ranking state for tests and tooling:
// the current view version, the slot-occupant assignment, and (meaningful
// at node 0) the migration counters. Zero values when rerank is off.
func (n *Node) ReorgState() (version uint64, occupants []int, migrations, suppressed uint64) {
	if !n.rerank {
		return 0, nil, 0, 0
	}
	v := n.curView()
	occ := make([]int, len(v.occupant))
	for i, o := range v.occupant {
		occ[i] = int(o)
	}
	if n.reorg != nil {
		migrations, suppressed = n.reorg.counters()
	}
	return v.version, occ, migrations, suppressed
}

// linkStats implements the engine's linkStatsProvider seam: the node's
// measured downstream link rates plus its re-ranking position. Sessions
// with neither a folded rate nor re-ranking enabled report nothing.
func (n *Node) linkStats() (SessionLinkStats, bool) {
	rates := n.rates.snapshot()
	if len(rates) == 0 && !n.rerank {
		return SessionLinkStats{}, false
	}
	st := SessionLinkStats{Links: len(rates)}
	var sum float64
	first := true
	for _, r := range rates {
		if first || r < st.MinRate {
			st.MinRate = r
			first = false
		}
		sum += r
	}
	if len(rates) > 0 {
		st.MeanRate = sum / float64(len(rates))
	}
	if n.rerank {
		v := n.curView()
		st.ReorgVersion = v.version
		st.Depth = v.depthOf(n.cfg.Index, n.treeK)
		if n.reorg != nil {
			st.Migrations, st.Suppressed = n.reorg.counters()
		}
	} else if n.treeK > 1 {
		st.Depth = treeDepth(n.cfg.Index, n.treeK)
	} else {
		st.Depth = n.cfg.Index
	}
	return st, true
}

// rateReport is the RATE spoke payload: one node's self-measured ingest
// rate and per-downstream-link drain rates, in bytes/second.
type rateReport struct {
	From    int        `json:"from"`
	Version uint64     `json:"version"`
	Ingest  float64    `json:"ingest,omitempty"`
	Have    uint64     `json:"have,omitempty"` // payload bytes ingested so far
	Links   []linkRate `json:"links,omitempty"`

	at time.Time // arrival at node 0 (not on the wire)
}

// haveBy estimates how many payload bytes the reporter holds at now: its
// Have advanced at its ingest rate for the report's age. Spokes come one
// RerankInterval apart and stop once the node finishes, so near the end of
// a broadcast the raw Have trails the truth by up to an interval of ingest
// — more than the planner's end-of-stream slack.
func (r *rateReport) haveBy(now time.Time) uint64 {
	return r.Have + uint64(r.Ingest*now.Sub(r.at).Seconds())
}

type linkRate struct {
	Peer int     `json:"peer"`
	Rate float64 `json:"rate"`
}

// runRateSpoke periodically reports this node's measured rates to node 0
// and absorbs the view the reply carries — the convergence path for nodes
// whose data connection has gone quiet. Receivers only.
func (n *Node) runRateSpoke(ctx context.Context) {
	var ingest rateMeter
	lastBytes := n.bytesIn.Load()
	lastAt := n.clk.Now()
	for {
		t := n.clk.NewTimer(n.opts.RerankInterval)
		select {
		case <-ctx.Done():
			t.Stop()
			return
		case <-n.passedC:
			t.Stop()
			return
		case <-t.C():
		}
		if n.Abandoned() {
			return
		}
		now := n.clk.Now()
		bytes := n.bytesIn.Load()
		ingest.sample(int(bytes-lastBytes), now.Sub(lastAt))
		lastBytes, lastAt = bytes, now
		n.sendRateReport(ingest.rate())
	}
}

// sendRateReport plays one RATE spoke exchange against node 0. Failures
// are silent: the next tick retries, and the data-plane piggyback keeps
// views flowing regardless.
func (n *Node) sendRateReport(ingest float64) {
	c, err := n.cfg.Network.Dial(n.peers()[0].Addr, n.opts.DialTimeout)
	if err != nil {
		return
	}
	w := n.newWire(c)
	defer w.close()
	w.setWriteDeadlineIn(n.opts.GetTimeout)
	if err := w.writeHelloFor(RoleRate, n.cfg.Index, n.sid); err != nil {
		return
	}
	v := n.curView()
	rep := &rateReport{From: n.cfg.Index, Version: v.version, Ingest: ingest, Have: n.bytesIn.Load()}
	for peer, r := range n.rates.snapshot() {
		rep.Links = append(rep.Links, linkRate{Peer: peer, Rate: r})
	}
	if err := w.writeRateReport(rep); err != nil {
		return
	}
	w.setReadDeadlineIn(n.opts.GetTimeout)
	typ, err := w.readType()
	if err != nil {
		return
	}
	_ = n.readViewFrame(w, typ)
}

// serveRateSpoke is node 0's side of one RATE spoke connection: fold the
// report, maybe replan, and answer with the current view.
func (n *Node) serveRateSpoke(w *wire) {
	defer w.close()
	w.setReadDeadlineIn(n.opts.GetTimeout)
	typ, err := w.readType()
	if err != nil || typ != MsgRate {
		return
	}
	rep, err := w.readRateReport()
	if err != nil {
		return
	}
	n.reorg.fold(rep)
	v := n.curView()
	w.setWriteDeadlineIn(n.opts.GetTimeout)
	_ = n.writeView(w, v)
}

// reorganizer is node 0's planning state: the latest rate report per
// node, the migration pacing clocks, and the executed/suppressed
// counters. Planning is driven by incoming spokes — no timer of its own.
type reorganizer struct {
	n *Node

	mu        sync.Mutex
	reports   map[int]*rateReport
	spoked    map[int]bool
	lastMoved map[int]time.Time
	lastPlan  time.Time
	migrated  uint64
	held      uint64
}

func newReorganizer(n *Node) *reorganizer {
	return &reorganizer{
		n:         n,
		reports:   make(map[int]*rateReport),
		spoked:    make(map[int]bool),
		lastMoved: make(map[int]time.Time),
	}
}

// noteSpoke records that a ring-report spoke arrived from peer: definitive
// proof the peer holds the whole payload and is winding down. Rate reports
// stop when a node finishes, so without this signal the planner would keep
// judging finished nodes by their last (forever-stale, mid-stream) report
// and could promote one whose listener is already gone.
func (g *reorganizer) noteSpoke(peer int) {
	g.mu.Lock()
	g.spoked[peer] = true
	g.mu.Unlock()
}

// hasSpoke reports whether peer delivered a ring spoke (finished its copy).
func (g *reorganizer) hasSpoke(peer int) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.spoked[peer]
}

func (g *reorganizer) counters() (migrations, suppressed uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.migrated, g.held
}

// fold absorbs one rate report and re-evaluates the plan.
func (g *reorganizer) fold(rep *rateReport) {
	if rep.From <= 0 || rep.From >= len(g.n.peers()) {
		return
	}
	rep.at = g.n.clk.Now()
	g.mu.Lock()
	defer g.mu.Unlock()
	g.reports[rep.From] = rep
	g.replanLocked()
}

// inRates folds the session's link measurements — node 0's own meters
// plus all reported links — into the measured rate INTO each node, but
// only along the link from its CURRENT view parent. Measurements from
// former parents are discarded: after a migration they echo the old
// topology's starvation, and acting on them re-demotes nodes the last
// plan just fixed.
func (g *reorganizer) inRates(v *treeView) map[int]float64 {
	n := g.n
	in := make(map[int]float64)
	for peer, r := range n.rates.snapshot() {
		if v.parentOf(peer, n.treeK) == 0 && r > in[peer] {
			in[peer] = r
		}
	}
	for _, rep := range g.reports {
		for _, l := range rep.Links {
			if v.parentOf(l.Peer, n.treeK) == rep.From && l.Rate > in[l.Peer] {
				in[l.Peer] = l.Rate
			}
		}
	}
	return in
}

// bottleneck estimates how fast node x can feed a subtree: the smaller of
// its best measured incoming link and its best reported outgoing link.
// Only busy-time link meters participate — wall-clock ingest rates
// confuse a starved (or finished) node with a slow one, because idle
// time counts against them. +Inf while unmeasured: an unknown node is
// never demoted on no evidence.
func (g *reorganizer) bottleneck(x int, in map[int]float64) float64 {
	if x == 0 {
		return math.Inf(1)
	}
	var maxOut float64
	if rep := g.reports[x]; rep != nil {
		for _, l := range rep.Links {
			if l.Rate > maxOut {
				maxOut = l.Rate
			}
		}
	}
	inRate := in[x]
	switch {
	case inRate > 0 && maxOut > 0:
		return math.Min(inRate, maxOut)
	case inRate > 0:
		return inRate
	case maxOut > 0:
		return maxOut
	}
	return math.Inf(1)
}

// rerankTieBand is the relative band within which two bottleneck
// estimates are considered equal; the shallower slot then wins, so the
// ancestor of a slow chain is demoted rather than its starved
// descendants (everything below a slow interior measures the same rate).
const rerankTieBand = 0.8

// rerankEndSlack divides the remaining stream length below which
// planning freezes: migrations this close to EOF cannot pay for
// themselves and would race the report/PASSED epilogue.
const rerankEndSlack = 8

// replanLocked computes and executes at most one migration: demote the
// slowest interior occupant (hysteresis: only when RerankBoost× its
// bottleneck still trails the fastest link anywhere) by swapping it with
// the best occupant of the deepest leaf slot in its subtree. Pacing —
// a global minimum interval plus a per-node cooldown — bounds migration
// churn; blocked candidates count as suppressed.
func (g *reorganizer) replanLocked() {
	n := g.n
	v := n.curView()
	// The tree shape is the view's slot count, not the member table's:
	// a just-admitted joiner may already be a member while this plan
	// generation predates its slot.
	np := len(v.occupant)

	// Freeze near EOF: node 0 knows the stream end, and the spokes carry
	// each reporter's ingest progress (projected to now: see haveBy).
	// Once even the laggard is within the slack of the end, a migration
	// cannot pay for itself and would only race the report/PASSED
	// epilogue. (Sender-side child cursors are useless for this —
	// transport buffering lets node 0 run arbitrarily far ahead of what
	// any subtree has actually received.)
	now := n.clk.Now()
	end, endKnown := n.st.End()
	if endKnown && len(g.reports) > 0 {
		minHave := uint64(math.MaxUint64)
		for _, rep := range g.reports {
			if h := rep.haveBy(now); h < minHave {
				minHave = h
			}
		}
		if minHave >= end || end-minHave <= end/rerankEndSlack {
			return
		}
	}
	// finished reports whether x is known (or projected) to hold the
	// entire stream: its lifecycle may already be over (REPORT sent,
	// listener closed), so it must be left exactly where it is — demoting
	// it buys nothing, and promoting it hands children to a peer that may
	// be gone.
	finished := func(x int) bool {
		if g.spoked[x] {
			return true
		}
		rep := g.reports[x]
		return endKnown && rep != nil && rep.haveBy(now) >= end
	}

	// ref is the fastest link rate observed anywhere in the session —
	// current or historical — the evidence that demotion can actually
	// buy throughput.
	in := g.inRates(v)
	var ref float64
	for _, r := range n.rates.snapshot() {
		if r > ref {
			ref = r
		}
	}
	for _, rep := range g.reports {
		for _, l := range rep.Links {
			if l.Rate > ref {
				ref = l.Rate
			}
		}
	}
	if ref <= 0 {
		return
	}

	// Slowest interior occupant, shallowest-first on near-ties: every
	// descendant of a slow interior is starved down to the same measured
	// rate, and demoting the ancestor is what fixes the subtree.
	worst, worstB := -1, math.Inf(1)
	for slot := 1; slot < np; slot++ {
		if len(treeChildren(slot, n.treeK, np)) == 0 {
			continue
		}
		x := int(v.occupant[slot])
		if n.isFailedPeer(x) {
			continue // crash recovery owns dead nodes
		}
		if x >= n.basePeers {
			continue // late joiners are leaf-pinned: never demoted or promoted
		}
		if finished(x) {
			continue
		}
		if b := g.bottleneck(x, in); b < worstB*rerankTieBand {
			worst, worstB = x, b
		}
	}
	if worst < 0 || math.IsInf(worstB, 1) {
		return
	}
	if worstB*n.opts.RerankBoost > ref {
		return // ranking is already (close enough to) correct
	}

	if now.Sub(g.lastPlan) < n.opts.RerankMinInterval {
		g.held++
		return
	}
	if t, ok := g.lastMoved[worst]; ok && now.Sub(t) < 2*n.opts.RerankMinInterval {
		g.held++
		return
	}

	// Partner: the best-measured occupant of the deepest leaf slot in the
	// demoted node's subtree — it rises to the interior seat, the slow
	// node sinks to the leaf.
	xslot := int(v.slotOf[worst])
	partnerSlot, partnerDepth, partnerB := -1, -1, -1.0
	var walk func(slot int)
	walk = func(slot int) {
		kids := treeChildren(slot, n.treeK, np)
		if len(kids) == 0 {
			occ := int(v.occupant[slot])
			if occ == worst || occ == 0 || occ >= n.basePeers || n.isFailedPeer(occ) {
				return
			}
			// A partner takes on children: require a live mid-stream
			// report as evidence it is still there to serve them.
			if g.reports[occ] == nil || finished(occ) {
				return
			}
			d := treeDepth(slot, n.treeK)
			b := g.bottleneck(occ, in)
			if math.IsInf(b, 1) {
				b = 0
			}
			if d > partnerDepth || (d == partnerDepth && b > partnerB) {
				partnerSlot, partnerDepth, partnerB = slot, d, b
			}
			return
		}
		for _, c := range kids {
			walk(c)
		}
	}
	walk(xslot)
	if partnerSlot < 0 {
		return
	}
	partner := int(v.occupant[partnerSlot])
	if t, ok := g.lastMoved[partner]; ok && now.Sub(t) < 2*n.opts.RerankMinInterval {
		g.held++
		return
	}

	next := &treeView{
		version:  v.version + 1,
		occupant: append([]int32(nil), v.occupant...),
		slotOf:   append([]int32(nil), v.slotOf...),
	}
	next.occupant[xslot], next.occupant[partnerSlot] = int32(partner), int32(worst)
	next.slotOf[worst], next.slotOf[partner] = int32(partnerSlot), int32(xslot)

	g.lastPlan = now
	g.lastMoved[worst] = now
	g.lastMoved[partner] = now
	g.migrated++
	n.installView(next)
	n.emit(TraceReorg, worst, next.version,
		fmt.Sprintf(reorgDetailFormat, partnerSlot, int64(worstB), partner, xslot))
}

// rerankServes reports whether target is still this node's to serve under
// the current view: a view child, or reachable from here through failed
// peers only (the §III-D subtree adoption, generalised to the re-ranked
// tree). Workers re-check it before every (re)dial so a migrated-away
// child is released instead of being chased.
func (n *Node) rerankServes(target int) bool {
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

// rerankFinished reports whether peer provably finished its copy: only
// node 0 can know (it terminates the ring spokes), everyone else reads
// false. Serving paths consult it before naming a failure — a refused
// dial to a node whose spoke already landed is a closed listener after a
// completed lifecycle, not a death.
func (n *Node) rerankFinished(peer int) bool {
	return n.reorg != nil && n.reorg.hasSpoke(peer)
}

// desiredRerankTargets is the manager-side reconciliation set: the view
// children (expanded through failed peers), minus completed lifecycles
// and targets deferred until a newer view.
func (n *Node) desiredRerankTargets(completed map[int]bool, deferred map[int]uint64) []int {
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

// runRerankManager is the downstream side of a re-ranking tree node: the
// static tree manager's worker-per-child loop turned into a reconciler
// over the live view. Reconciliation only ADDS workers (for newly desired
// targets); it never cancels one — displacement is child-driven. A child
// that adopted a better parent closes the old connection, the old
// worker's redial comes back QUIT(excluded), and the worker retires with
// outcomeSuperseded, deferring the target until the view moves again.
func (n *Node) runRerankManager(ctx context.Context) error {
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
				if !n.rerankServes(target) {
					post(exit{target, outcomeSuperseded, nil})
					return
				}
				// Report-phase adoptive dials are quiet: a child that
				// finished its lifecycle and detached must not be named a
				// failure just because the view handed it to us late.
				quiet := n.cfg.Index > 0 && reportSeen()
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
		desired := n.desiredRerankTargets(completed, deferred)
		if firstErr == nil && tctx.Err() == nil {
			for _, t := range desired {
				if !running[t] {
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
			// A childless node may yet be promoted; it settles only once
			// the report phase began (planning is frozen by then).
			if reportSeen() && len(desired) == 0 {
				// Bar further joins before committing to settle, then
				// re-check once: a joiner grafted between the desired
				// computation and here must be served, not starved.
				n.mu.Lock()
				n.closing = true
				n.mu.Unlock()
				if len(n.desiredRerankTargets(completed, deferred)) == 0 {
					break
				}
				continue
			}
		}
		timer := n.clk.NewTimer(n.opts.RerankInterval)
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
		case <-timer.C():
		case <-tctx.Done():
			if firstErr == nil {
				firstErr = tctx.Err()
			}
		}
		timer.Stop()
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
		// Same supplementary-spoke rule as the static tree manager: late
		// detections may be missing from every surviving leaf report.
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
