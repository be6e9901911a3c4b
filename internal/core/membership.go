package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sync"

	"kascade/internal/bufpool"
	"kascade/internal/transport"
)

// Dynamic membership (the late-join extension): a session started with N
// peers can admit further receivers while the broadcast is live. Node 0
// is the planner — AdmitJoiner appends the joiner to the member table,
// extends the current treeView by one leaf slot, and hands back a
// JoinGrant. The view (now one slot wider) propagates through the same
// three REORG channels self-reorganization already uses — rate-spoke
// replies, data-plane piggybacks, and dial proofs — upgraded to REORG2
// frames that carry the member table for slots beyond the start plan.
// The joiner's view parent reconciles the new child like any re-ranked
// target and starts serving it live data from the grant's catch-up
// boundary; everything before the boundary the joiner backfills itself
// with windowed PGETs against node 0 (the §III-D2 gap fetch generalized
// to ranges), spilling the live backlog to disk when it outgrows the
// session's memory reservation (joinState below).

// Typed membership errors: the control plane and CLI branch on these
// (via errors.Is/As and the wire status codes) instead of string-matching
// failure reasons.
var (
	// ErrSessionEnded rejects a join aimed at a session whose broadcast
	// already closed its ring (or was aborted).
	ErrSessionEnded = errors.New("kascade: session already ended")
	// ErrCatchUpEvicted aborts a catch-up whose pending range was evicted
	// at the source before the joiner could fetch it.
	ErrCatchUpEvicted = errors.New("kascade: catch-up range evicted at the source")
)

// JoinRefusedError is the planner's typed join refusal.
type JoinRefusedError struct{ Reason string }

func (e *JoinRefusedError) Error() string { return "kascade: join refused: " + e.Reason }

// ErrJoinRefused builds a typed join refusal.
func ErrJoinRefused(reason string) error { return &JoinRefusedError{Reason: reason} }

// Wire status codes for the membership errors, shared verbatim with the
// control plane's frame codes.
const (
	codeSessionEnded   = "session-ended"
	codeJoinRefused    = "join-refused"
	codeCatchUpEvicted = "catch-up-evicted"
)

// MembershipErrorCode classifies err into its wire status code
// ("session-ended", "join-refused", "catch-up-evicted"); empty for
// errors outside the membership family.
func MembershipErrorCode(err error) string {
	var jr *JoinRefusedError
	switch {
	case errors.Is(err, ErrSessionEnded):
		return codeSessionEnded
	case errors.As(err, &jr):
		return codeJoinRefused
	case errors.Is(err, ErrCatchUpEvicted):
		return codeCatchUpEvicted
	}
	return ""
}

// MembershipErrorFromCode reverses MembershipErrorCode: it rebuilds the
// typed error a wire status code stands for. ok is false for codes
// outside the membership family.
func MembershipErrorFromCode(code, msg string) (error, bool) {
	switch code {
	case codeSessionEnded:
		return ErrSessionEnded, true
	case codeJoinRefused:
		if msg == "" {
			msg = "refused by the session"
		}
		return ErrJoinRefused(msg), true
	case codeCatchUpEvicted:
		return ErrCatchUpEvicted, true
	}
	return nil, false
}

// JoinGrant is the planner's admission ticket: the joiner's assigned
// index, the full membership at admission, the size of the start plan
// (the frame-layout baseline every member shares), the catch-up boundary
// (live data flows from Head; [0, Head) is backfilled from node 0), and
// the membership view the graft rode in on.
type JoinGrant struct {
	Index     int     `json:"index"`
	Peers     []Peer  `json:"peers"`
	BasePeers int     `json:"base_peers"`
	Head      uint64  `json:"head"`
	Version   uint64  `json:"version"`
	Occupants []int32 `json:"occupants"`
}

// JoinSessionInfo describes a live session to a prospective joiner before
// it commits: enough to size its admission reservation and build its plan.
type JoinSessionInfo struct {
	Opts      Options `json:"opts"`
	Topology  string  `json:"topology"`
	BasePeers int     `json:"base_peers"`
}

// Wire payloads of the RoleJoin conversation (JSON-framed, like REPORT).
type joinHelloMsg struct {
	Name string `json:"name"`
	Addr string `json:"addr"`
}

type joinInfoMsg struct {
	Info *JoinSessionInfo `json:"info,omitempty"`
	Err  string           `json:"err,omitempty"`
	Code string           `json:"code,omitempty"`
}

type joinGrantMsg struct {
	Grant *JoinGrant `json:"grant,omitempty"`
	Err   string     `json:"err,omitempty"`
	Code  string     `json:"code,omitempty"`
}

func membershipWireError(err error) (msg, code string) {
	if err == nil {
		return "", ""
	}
	var jr *JoinRefusedError
	if errors.As(err, &jr) {
		// Carry the bare reason: the far end rebuilds the typed error
		// around it, so the prefix must not travel (it would nest).
		return jr.Reason, codeJoinRefused
	}
	return err.Error(), MembershipErrorCode(err)
}

func membershipErrorFromWire(msg, code string) error {
	if err, ok := MembershipErrorFromCode(code, msg); ok {
		return err
	}
	if msg == "" {
		msg = "join failed"
	}
	return fmt.Errorf("kascade: %s", msg)
}

// joinGate rejects joins on a session that is over or winding down.
// Caller holds n.mu.
func (n *Node) joinGateLocked() error {
	if n.closing {
		return ErrSessionEnded
	}
	select {
	case <-n.ringC:
		return ErrSessionEnded
	default:
	}
	if n.st != nil {
		if cause := n.st.AbortCause(); cause != nil {
			return ErrSessionEnded
		}
	}
	return nil
}

// joinPrecheck is the no-mutation half of admission, answered before the
// joiner commits its local resources.
func (n *Node) joinPrecheck() error {
	if n.cfg.Index != 0 {
		return fmt.Errorf("kascade: only node 0 admits joiners")
	}
	if n.reorg == nil {
		return ErrJoinRefused("session does not re-rank; late join requires a tree topology with rerank enabled")
	}
	if n.cfg.InputFile == nil {
		return ErrJoinRefused("late join requires a file-backed source at node 0")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.joinGateLocked()
}

// catchUpHeadLocked picks the joiner's catch-up boundary: the laggard's
// reported ingest progress, floored to a chunk — everything below it has
// provably been broadcast and is fetchable from the file store without
// racing the live frontier. Refuses when the broadcast is too close to
// EOF for a graft to complete (mirroring the planner's EOF freeze).
// Caller holds g.mu.
func (g *reorganizer) catchUpHeadLocked() (uint64, error) {
	n := g.n
	for peer, done := range g.spoked {
		if done {
			return 0, ErrJoinRefused(fmt.Sprintf("broadcast is completing (node %d already finished)", peer))
		}
	}
	if len(g.reports) == 0 {
		return 0, nil
	}
	minHave := uint64(math.MaxUint64)
	for _, rep := range g.reports {
		if rep.Have < minHave {
			minHave = rep.Have
		}
	}
	if end, ok := n.st.End(); ok && end-minHave <= end/rerankEndSlack {
		return 0, ErrJoinRefused("broadcast is completing")
	}
	chunk := uint64(n.opts.ChunkSize)
	return minHave - minHave%chunk, nil
}

// AdmitJoiner grafts a late joiner onto the live broadcast: it appends p
// to the member table, extends the current view by one leaf slot (tail of
// the BFS order), and returns the grant the joiner's Node runs from. Node
// 0 only. Typed failures: *JoinRefusedError when the session cannot take
// joiners (or is completing), ErrSessionEnded once the ring is closing.
//
// The view install rides the same versioned-REORG path as re-ranking, so
// the joiner's parent discovers its new child through the next rate-spoke
// reply (or data-plane piggyback) and dials it like any re-graft target.
func (n *Node) AdmitJoiner(p Peer) (*JoinGrant, error) {
	if err := n.joinPrecheck(); err != nil {
		return nil, err
	}
	if p.Name == "" || p.Addr == "" {
		return nil, ErrJoinRefused("joiner needs a name and an address")
	}
	g := n.reorg
	// Lock order g.mu → n.mu matches the planner's fold/replan path. The
	// member append and view install happen under both locks so the
	// manager's settle handshake (rerank.go) can bar the door atomically.
	g.mu.Lock()
	defer g.mu.Unlock()
	head, err := g.catchUpHeadLocked()
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	if err := n.joinGateLocked(); err != nil {
		n.mu.Unlock()
		return nil, err
	}
	cur := n.peers()
	for _, q := range cur {
		if q.Addr == p.Addr {
			n.mu.Unlock()
			return nil, ErrJoinRefused(fmt.Sprintf("address %s is already a member", p.Addr))
		}
	}
	idx := len(cur)
	ext := append(append(make([]Peer, 0, len(cur)+1), cur...), p)
	n.members.Store(&ext)
	v := n.curView()
	occ := append(append(make([]int32, 0, len(v.occupant)+1), v.occupant...), int32(idx))
	next := viewFromOccupants(v.version+1, occ)
	n.installView(next)
	n.mu.Unlock()

	n.emit(TraceJoin, idx, head, fmt.Sprintf("admitted %s into slot %d", p.Name, len(occ)-1))
	return &JoinGrant{
		Index:     idx,
		Peers:     ext,
		BasePeers: n.basePeers,
		Head:      head,
		Version:   next.version,
		Occupants: append([]int32(nil), occ...),
	}, nil
}

// serveJoin is node 0's side of a RoleJoin connection: a two-phase
// conversation so the joiner can run its local engine admission between
// learning the session's options (JOININFO) and committing the graft
// (JOINGO → JOINOK). Nothing is mutated until JOINGO arrives, so a
// refused local admission leaves the session untouched.
func (n *Node) serveJoin(w *wire) {
	defer w.close()
	w.setReadDeadlineIn(n.opts.GetTimeout)
	typ, err := w.readType()
	if err != nil || typ != MsgJoin {
		return
	}
	var hello joinHelloMsg
	if err := w.readJSON(&hello); err != nil {
		return
	}
	w.setWriteDeadlineIn(n.opts.GetTimeout)
	if err := n.joinPrecheck(); err != nil {
		msg, code := membershipWireError(err)
		_ = w.writeJSON(MsgJoinInfo, &joinInfoMsg{Err: msg, Code: code})
		return
	}
	info := &JoinSessionInfo{
		Opts:      n.opts,
		Topology:  n.cfg.Plan.Topology,
		BasePeers: n.basePeers,
	}
	if err := w.writeJSON(MsgJoinInfo, &joinInfoMsg{Info: info}); err != nil {
		return
	}
	// The joiner is now running its admission; give it the admit-queue
	// budget, not just a frame turnaround.
	w.setReadDeadlineIn(n.opts.FetchTimeout)
	typ, err = w.readType()
	if err != nil || typ != MsgJoinGo {
		return
	}
	w.setWriteDeadlineIn(n.opts.GetTimeout)
	grant, err := n.AdmitJoiner(Peer{Name: hello.Name, Addr: hello.Addr})
	if err != nil {
		msg, code := membershipWireError(err)
		_ = w.writeJSON(MsgJoinOK, &joinGrantMsg{Err: msg, Code: code})
		return
	}
	_ = w.writeJSON(MsgJoinOK, &joinGrantMsg{Grant: grant})
}

// NegotiateJoin plays the joiner's side of the RoleJoin conversation
// against the sender's data address: HELLO+JOIN, read the session
// descriptor, run the caller's admit hook (typically Engine.AdmitClass
// with the descriptor-derived reservation), then commit with JOINGO and
// return the grant. An admit error abandons the negotiation before the
// session is touched.
func NegotiateJoin(network transport.Network, senderAddr string, sid SessionID, clk Clock, peer Peer, admit func(*JoinSessionInfo) error) (*JoinGrant, *JoinSessionInfo, error) {
	o := (Options{Clock: clk}).withDefaults()
	clk = o.Clock
	c, err := network.Dial(senderAddr, o.DialTimeout)
	if err != nil {
		return nil, nil, fmt.Errorf("kascade: dialing sender for join: %w", err)
	}
	w := newWire(c, clk)
	defer w.close()
	w.setWriteDeadlineIn(o.GetTimeout)
	if err := w.writeHelloFor(RoleJoin, 0, sid); err != nil {
		return nil, nil, err
	}
	if err := w.writeJSON(MsgJoin, &joinHelloMsg{Name: peer.Name, Addr: peer.Addr}); err != nil {
		return nil, nil, err
	}
	w.setReadDeadlineIn(o.FetchTimeout)
	typ, err := w.readType()
	if err != nil {
		return nil, nil, err
	}
	if typ != MsgJoinInfo {
		return nil, nil, &errProtocol{want: MsgJoinInfo, got: typ}
	}
	var im joinInfoMsg
	if err := w.readJSON(&im); err != nil {
		return nil, nil, err
	}
	if im.Info == nil {
		return nil, nil, membershipErrorFromWire(im.Err, im.Code)
	}
	if admit != nil {
		if err := admit(im.Info); err != nil {
			return nil, im.Info, err
		}
	}
	w.setWriteDeadlineIn(o.GetTimeout)
	if err := w.writeType(MsgJoinGo); err != nil {
		return nil, im.Info, err
	}
	w.setReadDeadlineIn(o.FetchTimeout)
	typ, err = w.readType()
	if err != nil {
		return nil, im.Info, err
	}
	if typ != MsgJoinOK {
		return nil, im.Info, &errProtocol{want: MsgJoinOK, got: typ}
	}
	var gm joinGrantMsg
	if err := w.readJSON(&gm); err != nil {
		return nil, im.Info, err
	}
	if gm.Grant == nil {
		return nil, im.Info, membershipErrorFromWire(gm.Err, gm.Code)
	}
	return gm.Grant, im.Info, nil
}

// joinState serializes a late joiner's sink so it only ever sees a
// contiguous prefix of the broadcast: the backfill (catch-up bytes
// [0, head)) writes through in order while live chunks (≥ head) queue in
// an ordered backlog — arena-recycled buffers up to the session's memory
// reservation, then an unlinked disk spill — and once the backfill
// reaches head the backlog drains and the state flips to write-through.
type joinState struct {
	mu       sync.Mutex
	sink     io.Writer
	head     uint64 // catch-up boundary: live ingest starts here
	written  uint64 // contiguous payload bytes delivered to the sink
	budget   int64  // in-memory backlog bound (the session reservation)
	chunkCap int    // arena buffer size for backlog copies

	mem      [][]byte
	memBytes int64
	spill    *os.File
	spillW   int64

	caught bool
	failed error
	done   chan struct{}
	closed bool // done already closed

	// Buffer recycling seam; tests override to observe arena traffic.
	getBuf func(n int) []byte
	putBuf func(b []byte)
}

func newJoinState(sink io.Writer, head uint64, budget int64, chunkCap int) *joinState {
	if chunkCap < 1 {
		chunkCap = 1
	}
	js := &joinState{
		sink:     sink,
		head:     head,
		budget:   budget,
		chunkCap: chunkCap,
		done:     make(chan struct{}),
		getBuf:   bufpool.Get,
		putBuf:   bufpool.Put,
	}
	if head == 0 || sink == nil {
		// Nothing to backfill (or nobody reading): write-through from the
		// first live chunk.
		js.caught = true
	}
	return js
}

// trivial reports whether there is no backfill to run.
func (js *joinState) trivial() bool {
	js.mu.Lock()
	defer js.mu.Unlock()
	return js.caught
}

// progress returns the contiguous bytes already delivered to the sink —
// the catch-up's resume offset.
func (js *joinState) progress() uint64 {
	js.mu.Lock()
	defer js.mu.Unlock()
	return js.written
}

// failure returns the recorded terminal error, if any.
func (js *joinState) failure() error {
	js.mu.Lock()
	defer js.mu.Unlock()
	return js.failed
}

func (js *joinState) closeDoneLocked() {
	if !js.closed {
		js.closed = true
		close(js.done)
	}
}

// live accepts one in-order live chunk (offset ≥ head): written through
// once caught up, queued in the backlog otherwise. Once the backlog has
// started spilling, every subsequent chunk spills too — order on disk is
// append order, and an in-memory chunk behind a spilled one would drain
// out of sequence.
func (js *joinState) live(b []byte) error {
	js.mu.Lock()
	defer js.mu.Unlock()
	if js.failed != nil {
		return js.failed
	}
	if js.caught {
		if js.sink != nil {
			if _, err := js.sink.Write(b); err != nil {
				return err
			}
		}
		js.written += uint64(len(b))
		return nil
	}
	if js.spill == nil && js.memBytes+int64(len(b)) <= js.budget {
		buf := js.getBuf(js.chunkCap)
		n := copy(buf, b)
		if n < len(b) {
			// Chunk larger than the arena class (should not happen: live
			// chunks are at most ChunkSize): fall back to an exact copy.
			buf = append([]byte(nil), b...)
			n = len(b)
		}
		js.mem = append(js.mem, buf[:n])
		js.memBytes += int64(n)
		return nil
	}
	if js.spill == nil {
		f, err := os.CreateTemp("", "kascade-join-spill-*")
		if err != nil {
			return fmt.Errorf("kascade: creating catch-up spill file: %w", err)
		}
		// Unlink immediately: the fd keeps the file alive, nothing leaks
		// if the process dies mid-catch-up.
		_ = os.Remove(f.Name())
		js.spill = f
	}
	if _, err := js.spill.Write(b); err != nil {
		return fmt.Errorf("kascade: writing catch-up spill: %w", err)
	}
	js.spillW += int64(len(b))
	return nil
}

// backfill accepts one in-order catch-up chunk (offset < head) and writes
// it straight through to the sink.
func (js *joinState) backfill(b []byte) error {
	js.mu.Lock()
	defer js.mu.Unlock()
	if js.failed != nil {
		return js.failed
	}
	if js.caught {
		return fmt.Errorf("kascade: internal: backfill after catch-up completed")
	}
	if js.sink != nil {
		if _, err := js.sink.Write(b); err != nil {
			return err
		}
	}
	js.written += uint64(len(b))
	return nil
}

// finish drains the live backlog into the sink — memory first, spill
// second, both in arrival order — and flips to write-through. The sink is
// then a contiguous prefix again and live chunks flow straight through.
func (js *joinState) finish() error {
	js.mu.Lock()
	defer js.mu.Unlock()
	if js.failed != nil {
		return js.failed
	}
	if js.caught {
		js.closeDoneLocked()
		return nil
	}
	for _, buf := range js.mem {
		if js.sink != nil {
			if _, err := js.sink.Write(buf); err != nil {
				return err
			}
		}
		js.written += uint64(len(buf))
		js.putBuf(buf)
	}
	js.mem, js.memBytes = nil, 0
	if js.spill != nil {
		if _, err := js.spill.Seek(0, io.SeekStart); err != nil {
			return fmt.Errorf("kascade: rewinding catch-up spill: %w", err)
		}
		out := io.Writer(io.Discard)
		if js.sink != nil {
			out = js.sink
		}
		n, err := io.Copy(out, io.LimitReader(js.spill, js.spillW))
		js.written += uint64(n)
		cerr := js.spill.Close()
		js.spill = nil
		if err != nil {
			return fmt.Errorf("kascade: draining catch-up spill: %w", err)
		}
		if cerr != nil {
			return cerr
		}
	}
	js.caught = true
	js.closeDoneLocked()
	return nil
}

// fail records the terminal error, releases the backlog, and unblocks
// everyone waiting for parity.
func (js *joinState) fail(err error) {
	js.mu.Lock()
	defer js.mu.Unlock()
	if js.failed == nil {
		js.failed = err
	}
	for _, buf := range js.mem {
		js.putBuf(buf)
	}
	js.mem, js.memBytes = nil, 0
	if js.spill != nil {
		_ = js.spill.Close()
		js.spill = nil
	}
	js.closeDoneLocked()
}

// awaitCatchUp blocks until the joiner reached parity (or failed); nil
// immediately for everyone else. The re-rank manager gates its report
// epilogue on it so a joiner's ring spoke always certifies a complete
// sink.
func (n *Node) awaitCatchUp(ctx context.Context) error {
	js := n.joinSt
	if js == nil {
		return nil
	}
	select {
	case <-js.done:
		return js.failure()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// rangeForgetError is fetchRange's typed FORGET answer: the source's
// retained window starts at Base, past the range we asked for.
type rangeForgetError struct{ Base uint64 }

func (e *rangeForgetError) Error() string {
	return fmt.Sprintf("kascade: catch-up source forgot data below %d", e.Base)
}

// runCatchUp is the joiner's backfill driver: fetch [0, head) from node 0
// in PGET windows, then drain the live backlog to parity. A terminal
// failure abandons the node with the typed cause recorded on joinState.
func (n *Node) runCatchUp(ctx context.Context) {
	js := n.joinSt
	if err := n.catchUp(ctx); err != nil {
		js.fail(err)
		n.abandon(fmt.Sprintf("catch-up failed: %v", err))
		return
	}
	if err := js.finish(); err != nil {
		js.fail(err)
		n.abandon(fmt.Sprintf("catch-up drain failed: %v", err))
	}
}

// catchUp fetches [progress, head) in windows sized like the session's
// replay window, resuming from the contiguous sink progress after any
// broken connection. One FORGET triggers a refetch from the resume
// offset; a second FORGET with no progress in between means the range is
// genuinely gone and the catch-up dies with ErrCatchUpEvicted.
func (n *Node) catchUp(ctx context.Context) error {
	js := n.joinSt
	if js.trivial() {
		return nil
	}
	n.emit(TraceGapFetchStart, 0, js.head, "catch-up")
	window := uint64(n.opts.ChunkSize) * uint64(n.opts.WindowChunks)
	retries, forgot := 0, false
	for {
		from := js.progress()
		if from >= js.head {
			n.emit(TraceGapFetchDone, 0, js.head, "catch-up")
			return nil
		}
		to := from + window
		if to > js.head {
			to = js.head
		}
		err := n.fetchRange(ctx, from, to)
		if err == nil {
			retries, forgot = 0, false
			continue
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		var fe *rangeForgetError
		if errors.As(err, &fe) {
			if forgot && js.progress() == from {
				return fmt.Errorf("%w: source retains only offsets ≥ %d, need %d", ErrCatchUpEvicted, fe.Base, from)
			}
			forgot = true
			continue
		}
		if js.progress() > from {
			retries = 0
		} else {
			retries++
		}
		if retries > n.opts.DialRetries {
			return fmt.Errorf("kascade: catch-up stalled at %d of %d: %w", js.progress(), js.head, err)
		}
	}
}

// fetchRange plays one PGET window [from, to) against node 0 — exactly
// the §III-D2 gap-fetch conversation, range-sized — writing each chunk
// through the joinState backfill path.
func (n *Node) fetchRange(ctx context.Context, from, to uint64) error {
	c, err := n.cfg.Network.Dial(n.peers()[0].Addr, n.opts.DialTimeout)
	if err != nil {
		return err
	}
	w := n.newWire(c)
	defer w.close()
	n.countRepairFetch()
	w.setWriteDeadlineIn(n.opts.GetTimeout)
	if err := w.writeHelloFor(RoleFetch, n.cfg.Index, n.sid); err != nil {
		return err
	}
	if err := w.writePGet(from, to); err != nil {
		return err
	}
	js := n.joinSt
	off := from
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		w.setReadDeadlineIn(n.opts.FetchTimeout)
		typ, err := w.readType()
		if err != nil {
			return err
		}
		switch typ {
		case MsgData:
			ck, err := w.readData(n.pool, nil)
			if err != nil {
				return err
			}
			size := uint64(len(ck.bytes()))
			werr := js.backfill(ck.bytes())
			ck.release()
			if werr != nil {
				return werr
			}
			off += size
			n.emit(TraceChunk, -1, n.bytesIn.Add(size), "")
		case MsgEnd:
			if _, err := w.readUint64(); err != nil {
				return err
			}
			if off < to {
				return fmt.Errorf("kascade: catch-up fetch ended early at %d of %d", off, to)
			}
			return nil
		case MsgForget:
			base, err := w.readUint64()
			if err != nil {
				return err
			}
			return &rangeForgetError{Base: base}
		default:
			return &errProtocol{want: MsgData, got: typ}
		}
	}
}
