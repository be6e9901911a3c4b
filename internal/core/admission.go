package core

import (
	"context"
	"fmt"
	"time"
)

// This file is the engine's admission policy: the decision, taken before a
// session touches the data plane, of whether its pooled-memory reservation
// fits the process right now. PR 3 left true overload implicit — a session
// whose reservation did not fit was silently granted a floor-sized pool —
// which kept broadcasts correct but slow, invisible to the sender, and
// unbounded in number. Admission makes the three possible answers explicit:
//
//   - Accepted: the reservation is debited from the global budget at once
//     and held (ownerless) until the session's node registers and adopts it.
//   - Queued: the reservation does not fit now but will once running
//     sessions release theirs; the ticket parks until budget frees on a
//     session end (the release hook) or the queue deadline passes.
//   - Refused: the reservation can never fit (larger than the whole
//     budget), the session ID is already taken, the queue is full, or the
//     engine is closed. Refusals carry a reason and surface to senders as
//     a typed *AdmissionError before any data connection is dialed.

// AdmitDecision is the engine's answer to an admission request.
type AdmitDecision int

const (
	// AdmitAccepted means the reservation is granted and debited.
	AdmitAccepted AdmitDecision = iota + 1
	// AdmitQueued means the session is parked until budget frees or the
	// queue deadline passes; wait on the ticket for the final answer.
	AdmitQueued
	// AdmitRefused means the session may not run; the ticket carries the
	// reason.
	AdmitRefused
)

func (d AdmitDecision) String() string {
	switch d {
	case AdmitAccepted:
		return "accepted"
	case AdmitQueued:
		return "queued"
	case AdmitRefused:
		return "refused"
	default:
		return fmt.Sprintf("AdmitDecision(%d)", int(d))
	}
}

// AdmissionError is the typed error a sender receives when the engine
// refuses (or times out queueing) a session, before any data connection for
// it is dialed.
type AdmissionError struct {
	Session SessionID
	Reason  string
	// Queued reports that the session was parked in the admission queue
	// first and the refusal is a queue timeout, not an outright no.
	Queued bool
}

func (e *AdmissionError) Error() string {
	if e.Queued {
		return fmt.Sprintf("kascade: session %d refused after queueing: %s", e.Session, e.Reason)
	}
	return fmt.Sprintf("kascade: session %d refused: %s", e.Session, e.Reason)
}

// Ticket is the result of one Admit call. For AdmitQueued tickets, Wait
// blocks until the queue resolves; Accepted and Refused tickets are final
// immediately.
type Ticket struct {
	Session  SessionID
	Deadline time.Time // queue deadline (zero unless queued)

	e     *Engine
	ready chan struct{} // closed when a queued ticket resolves

	// Final decision + reason. For queued tickets these fields are written
	// (under e.mu) before ready closes; otherwise they are set at creation
	// and never change.
	decision AdmitDecision
	reason   string
	queued   bool // ticket went through the queue (for error typing)
}

// Decision returns the ticket's current decision; AdmitQueued until a
// queued ticket resolves.
func (t *Ticket) Decision() AdmitDecision {
	if t.ready == nil {
		return t.decision
	}
	select {
	case <-t.ready:
		return t.finalDecision()
	default:
		return AdmitQueued
	}
}

func (t *Ticket) finalDecision() AdmitDecision {
	t.e.mu.Lock()
	defer t.e.mu.Unlock()
	return t.decision
}

// Err converts a refused ticket into its typed error; nil when the ticket
// is (or became) accepted, and nil while still queued.
func (t *Ticket) Err() error {
	t.e.mu.Lock()
	defer t.e.mu.Unlock()
	if t.decision != AdmitRefused {
		return nil
	}
	return &AdmissionError{Session: t.Session, Reason: t.reason, Queued: t.queued}
}

// Wait blocks until a queued ticket resolves (budget freed, queue deadline
// passed, or engine closed) and returns the final decision. Accepted and
// refused tickets return immediately. Cancelling the context abandons the
// admission request: the ticket is withdrawn from the queue and the wait
// returns AdmitRefused with the context's error.
func (t *Ticket) Wait(ctx context.Context) (AdmitDecision, error) {
	if t.ready == nil {
		return t.decision, t.Err()
	}
	select {
	case <-t.ready:
		return t.finalDecision(), t.Err()
	case <-ctx.Done():
		// Cancel withdraws the ticket whatever its state: even if the
		// pump accepted concurrently, the (still ownerless) grant has
		// just been given back, so the only truthful answer is refusal.
		t.Cancel()
		return AdmitRefused, ctx.Err()
	}
}

// Cancel withdraws a pending admission: a queued ticket leaves the queue,
// and an accepted ticket whose session never registered gives its
// reservation back. Safe to call at any point in the ticket's life; it is
// a no-op once the session's node has registered, and — because grants
// remember the ticket that created them — a stale Cancel can never revoke
// a NEWER admission that reused the same session ID.
func (t *Ticket) Cancel() {
	t.e.cancelAdmission(t)
}

// admitWaiter is one queued admission in Engine.admitQ: FIFO within its
// class, weighted round-robin across classes at the pump.
type admitWaiter struct {
	ticket      *Ticket
	reservation int64
	class       string
	weight      int
	timer       Timer
}

// Admit decides whether a session asking for `reservation` bytes of pooled
// payload buffers may run on this engine, under the default (weight-1)
// class. See AdmitClass.
func (e *Engine) Admit(sid SessionID, reservation int64) *Ticket {
	return e.AdmitClass(sid, reservation, "")
}

// AdmitClass decides whether a session asking for `reservation` bytes of
// pooled payload buffers may run on this engine. Reservation normally
// comes from Options.PoolReservation of the session's protocol options;
// class names the priority class (EngineOptions.Classes) that orders the
// admission queue and later scales the session's data-plane quanta. The
// returned ticket is final for AdmitAccepted and AdmitRefused; for
// AdmitQueued the caller waits on it. An accepted reservation is held
// against the budget (ownerless) until the session's node registers and
// adopts it; callers that accept but never start must Cancel the ticket
// (lease expiry does this in the agent).
func (e *Engine) AdmitClass(sid SessionID, reservation int64, class string) *Ticket {
	class = e.canonicalClass(class)
	e.mu.Lock()
	defer e.mu.Unlock()

	refuse := func(reason string) *Ticket {
		e.refusedTotal++
		e.classCounterLocked(class).refused++
		return &Ticket{Session: sid, e: e, decision: AdmitRefused, reason: reason}
	}
	switch {
	case e.closed:
		return refuse("engine is closed")
	case sid == 0:
		return refuse("session 0 is the unnamed session of a private engine and cannot be admitted explicitly")
	case reservation <= 0:
		return refuse(fmt.Sprintf("non-positive reservation %d B", reservation))
	case e.isKnownLocked(sid):
		return refuse("session already registered or queued on this engine")
	case reservation > e.opts.MemBudget:
		return refuse(fmt.Sprintf("reservation of %d B exceeds the engine budget of %d B", reservation, e.opts.MemBudget))
	}
	// The session is coming (back): its early connections park again.
	e.unretireLocked(sid)

	// No bypass of the pump: while anyone is queued, newcomers queue
	// behind them even if their smaller reservation would fit right now —
	// otherwise a stream of small sessions starves a large queued one
	// forever. (Ordering among the queued is the pump's weighted
	// round-robin, FIFO within a class.)
	if len(e.admitQ) == 0 && e.fitsLocked(reservation) {
		t := &Ticket{Session: sid, e: e, decision: AdmitAccepted}
		e.reserved[sid] = &grant{owner: nil, bytes: reservation, ticket: t, class: class}
		e.used += reservation
		e.admittedTotal++
		e.classCounterLocked(class).admitted++
		return t
	}

	if len(e.admitQ) >= e.opts.MaxAdmitQueue {
		return refuse(fmt.Sprintf("admission queue full (%d waiting)", len(e.admitQ)))
	}
	deadline := e.clk.Now().Add(e.opts.AdmitQueueTimeout)
	t := &Ticket{
		Session:  sid,
		Deadline: deadline,
		e:        e,
		ready:    make(chan struct{}),
		decision: AdmitQueued,
		queued:   true,
	}
	w := &admitWaiter{ticket: t, reservation: reservation, class: class, weight: e.sched.weightFor(class)}
	w.timer = e.clk.NewTimer(e.opts.AdmitQueueTimeout)
	e.admitQ = append(e.admitQ, w)
	e.queuedTotal++
	e.classCounterLocked(class).queued++
	go func() {
		defer w.timer.Stop()
		select {
		case <-w.timer.C():
			e.expireAdmission(w)
		case <-t.ready:
		}
	}()
	return t
}

// fitsLocked reports whether a reservation fits the budget and session cap
// right now. Caller holds e.mu.
func (e *Engine) fitsLocked(reservation int64) bool {
	if e.opts.MaxSessions > 0 && len(e.reserved) >= e.opts.MaxSessions {
		return false
	}
	return e.used+reservation <= e.opts.MemBudget
}

// Serves reports whether the engine currently carries the session —
// reserved (pending or registered) or parked in the admission queue.
// Late-join front ends use it to refuse a join through an agent that is
// already a member of the broadcast, before any wire work happens.
func (e *Engine) Serves(sid SessionID) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.isKnownLocked(sid)
}

// isKnownLocked reports whether sid is reserved (pending or registered) or
// queued. Caller holds e.mu.
func (e *Engine) isKnownLocked(sid SessionID) bool {
	if _, ok := e.reserved[sid]; ok {
		return true
	}
	for _, w := range e.admitQ {
		if w.ticket.Session == sid {
			return true
		}
	}
	return false
}

// pumpAdmitQueueLocked re-examines the admission queue after budget freed
// (a session released its reservation — the engine's release hook).
//
// Selection is class-ordered: smooth weighted round-robin across the
// classes present in the queue, FIFO within each class. A high-weight
// class is offered proportionally more admission turns, but every class
// keeps taking turns, so the low-weight one is starvation-free. When a
// chosen head does not fit, it becomes the sticky head-of-line claimant:
// the pump admits NOTHING else until it fits (or leaves the queue), so
// every byte of freed budget accumulates for it — the strict-FIFO
// guarantee that a large reservation cannot be starved by a stream of
// small ones slipping past, carried over across classes. The spent pick
// keeps the round-robin honest (refunding it would let a blocked
// high-weight class outgrow everyone). Caller holds e.mu; resolved
// tickets are returned so their channels can be closed after unlock (Wait
// callers run arbitrary code).
func (e *Engine) pumpAdmitQueueLocked() []*Ticket {
	var resolved []*Ticket
	for len(e.admitQ) > 0 {
		if e.closed {
			w := e.admitQ[0]
			e.admitQ = e.admitQ[1:]
			if e.admitHol == w {
				e.admitHol = nil
			}
			w.ticket.decision = AdmitRefused
			w.ticket.reason = "engine closed while queued"
			e.refusedTotal++
			e.classCounterLocked(w.class).refused++
			resolved = append(resolved, w.ticket)
			continue
		}
		w := e.admitHol
		idx := -1
		if w != nil {
			for i, q := range e.admitQ {
				if q == w {
					idx = i
					break
				}
			}
			if idx < 0 {
				// The claimant expired or was cancelled off-queue.
				e.admitHol = nil
				continue
			}
		} else {
			idx = e.pickAdmitLocked()
			w = e.admitQ[idx]
		}
		if !e.fitsLocked(w.reservation) {
			// Head-block: stop pumping, and let freed budget accumulate
			// for this claimant until it fits.
			e.admitHol = w
			break
		}
		e.admitHol = nil
		e.reserved[w.ticket.Session] = &grant{owner: nil, bytes: w.reservation, ticket: w.ticket, class: w.class}
		e.used += w.reservation
		w.ticket.decision = AdmitAccepted
		e.admittedTotal++
		e.classCounterLocked(w.class).admitted++
		e.admitQ = append(e.admitQ[:idx], e.admitQ[idx+1:]...)
		resolved = append(resolved, w.ticket)
	}
	return resolved
}

// pickAdmitLocked selects the queue index of the next admission candidate
// by smooth weighted round-robin over the classes present: every class
// with waiters earns its weight in credit, the richest class wins the turn
// and pays the total back. FIFO within the winning class: its first waiter
// is the candidate. Caller holds e.mu with len(admitQ) > 0.
func (e *Engine) pickAdmitLocked() int {
	first := make(map[string]int, 4) // class -> earliest queue index
	var order []string               // classes by first appearance (tie-break)
	total := 0
	for i, w := range e.admitQ {
		if _, ok := first[w.class]; !ok {
			first[w.class] = i
			order = append(order, w.class)
			total += w.weight
		}
	}
	if len(order) == 1 {
		return first[order[0]]
	}
	winner := ""
	for _, class := range order {
		e.admitRR[class] += e.admitQ[first[class]].weight
		if winner == "" || e.admitRR[class] > e.admitRR[winner] {
			winner = class
		}
	}
	e.admitRR[winner] -= total
	return first[winner]
}

// closeTickets closes resolved tickets' ready channels (outside e.mu).
func closeTickets(ts []*Ticket) {
	for _, t := range ts {
		close(t.ready)
	}
}

// expireAdmission resolves one queued waiter whose deadline passed. If it
// was the sticky head-of-line claimant, the budget it was accumulating is
// up for grabs again, so the queue pumps.
func (e *Engine) expireAdmission(w *admitWaiter) {
	e.mu.Lock()
	found := false
	for i, q := range e.admitQ {
		if q == w {
			e.admitQ = append(e.admitQ[:i], e.admitQ[i+1:]...)
			found = true
			break
		}
	}
	var resolved []*Ticket
	if found {
		w.ticket.decision = AdmitRefused
		w.ticket.reason = fmt.Sprintf("queued %v without budget freeing (queue deadline)", e.opts.AdmitQueueTimeout)
		e.refusedTotal++
		e.queueTimeouts++
		e.classCounterLocked(w.class).refused++
		if e.admitHol == w {
			e.admitHol = nil
			resolved = e.pumpAdmitQueueLocked()
		}
	}
	e.mu.Unlock()
	if found {
		close(w.ticket.ready)
	}
	closeTickets(resolved)
}

// cancelAdmission withdraws one ticket's pending admission: a queued
// waiter leaves the queue; an accepted-but-unregistered (ownerless)
// reservation created by THIS ticket returns to the budget, which may in
// turn admit queued waiters. Reservations owned by a running node, and
// reservations created by a different (newer) admission of the same
// session ID, are untouched.
func (e *Engine) cancelAdmission(t *Ticket) {
	e.mu.Lock()
	var cancelled *Ticket
	for i, q := range e.admitQ {
		if q.ticket == t {
			e.admitQ = append(e.admitQ[:i], e.admitQ[i+1:]...)
			if e.admitHol == q {
				e.admitHol = nil
			}
			q.ticket.decision = AdmitRefused
			q.ticket.reason = "admission cancelled"
			cancelled = q.ticket
			break
		}
	}
	var resolved []*Ticket
	if r, ok := e.reserved[t.Session]; ok && r.owner == nil && r.ticket == t {
		delete(e.reserved, t.Session)
		e.used -= r.bytes
		resolved = e.pumpAdmitQueueLocked()
	} else if cancelled != nil {
		// A withdrawn waiter (possibly the sticky claimant) may unblock
		// the rest of the queue.
		resolved = e.pumpAdmitQueueLocked()
	}
	e.mu.Unlock()
	if cancelled != nil {
		close(cancelled.ready)
	}
	closeTickets(resolved)
}
