package core

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the engine's data-plane scheduler: a small worker pool that
// pulls ready-session work items off a weighted round-robin run queue and
// turns each into one forwardable chunk batch for that session.
//
// Before it, every engine-attached session drove its downstream sender as
// a free-running goroutine blocked in ChunkAt, woken once per appended
// chunk. With 16 overlapping sessions on a few cores, the host scheduler
// round-robins dozens of runnable forwarders in arbitrary order — a convoy
// that cost ~35% of aggregate throughput at 16 sessions (see the PR 3 mux
// table). The scheduler replaces both properties:
//
//   - The unit of scheduling is a forwardable chunk batch, not a session:
//     a worker claims up to weight×Quantum bytes of consecutive ready
//     chunks from the session's store in one step and hands them over as
//     one vectored-write batch.
//
//   - Wakeups are batched: a session with nothing to forward parks (no
//     goroutine blocked in the store), its store notify is armed
//     edge-triggered, and it re-enters the run queue once per drain cycle
//     — one notify per claimed batch, not one broadcast per chunk.
//
// Turn order is weighted round-robin: ready sessions are served FIFO, and
// class weights (EngineOptions.Classes) scale the per-turn byte budget, so
// an interactive session drains proportionally more per rotation than a
// bulk one without ever starving it. The claim itself is cheap (reference
// moves under the store lock); the actual network write runs on the
// session's own goroutine, so one session's stalled successor never holds
// a worker hostage and cannot convoy its neighbours.

// schedTurn is one granted turn: a claimed batch of retained chunks (the
// receiving session writes and releases them), or the store's terminal
// condition, or the instruction to fall back to the direct blocking path
// because the scheduler is gone (engine closed, session detached).
type schedTurn struct {
	batch  []*chunk
	n      int // total payload bytes across batch
	err    error
	inline bool
}

// Entry states, guarded by scheduler.mu.
const (
	entryIdle    = iota // parked; the store notify re-queues it
	entryReady          // waiting in the run queue
	entryRunning        // being claimed by a worker, or its session holds a turn
)

// schedEntry is one session's seat in the scheduler.
type schedEntry struct {
	s         *scheduler
	st        store
	class     string
	weight    int
	budget    int // byte budget per turn: weight × quantum, capped by the session's batch limit
	chunkSize int // the session's chunk granularity (cap pre-check, as in nextBatch)

	// Guarded by s.mu.
	state    int
	pending  bool // notify fired while running: re-queue instead of idling
	detached bool
	off      uint64 // next claim offset, posted by the session at next()

	// want (guarded by s.mu) is the arm threshold: the byte backlog the
	// next idle arm waits for before waking this session. Sticky binary:
	// the full budget while claims keep filling at least half of it (the
	// pipeline moves in quantum pulses — one wakeup per pulse), the
	// first byte otherwise (minimum latency). A flush timer bounds the
	// staging time of any threshold arm, so a producer pausing
	// mid-stream cannot strand a partial backlog.
	want int
	// flushed (guarded by s.mu) marks a flush wake: if the claim that
	// follows finds nothing at all, the arm drops to first-byte so an
	// idle session is not swept every interval.
	flushed bool
	// armedAt (guarded by s.mu) is when the current threshold arm went
	// idle; the sweeper flushes arms older than schedFlushDelay.
	armedAt time.Time

	turn  chan schedTurn // cap 1; at most one outstanding turn per entry
	batch []*chunk       // claim scratch, reused turn to turn

	// rate is the session's measured downstream drain rate in bytes/s
	// (math.Float64bits), posted lock-free by the serving goroutine after
	// each write. Adaptive quanta read it per claim: the static budget
	// becomes a ceiling, and the effective turn is sized to what the
	// successor drains within the scheduler's target latency — a slow-WAN
	// successor gets small low-latency turns instead of monopolising a
	// quantum it cannot drain.
	rate atomic.Uint64
}

// observeRate posts the session's measured drain rate. Nil-safe: tree
// relays have no seat and drop the sample.
func (e *schedEntry) observeRate(r float64) {
	if e == nil || r <= 0 {
		return
	}
	e.rate.Store(math.Float64bits(r))
}

// schedClassStats accumulates per-class scheduling counters.
type schedClassStats struct {
	turns uint64
	bytes uint64
}

// schedFlushDelay bounds how long a threshold arm may stage a partial
// backlog: when it fires, whatever is buffered is claimed and delivered,
// and the session's arm threshold adapts down to that amount. It is the
// worst-case latency a pausing producer can add per hop — deliberately
// generous, because the threshold exists to amortise wakeups under load,
// and a tight bound would cut every slower-than-quantum session back to
// per-chunk wakes (the convoy this scheduler removes).
const schedFlushDelay = 500 * time.Millisecond

// scheduler is the engine-owned run queue and worker pool.
type scheduler struct {
	quantum int
	latency time.Duration // target per-turn drain latency for adaptive quanta
	classes map[string]int
	workers int
	clk     Clock

	mu     sync.Mutex
	cond   *sync.Cond // workers wait here for ready entries
	runq   []*schedEntry
	all    map[*schedEntry]struct{}
	closed bool
	done   chan struct{} // closed with the scheduler; stops the sweeper
	stats  map[string]*schedClassStats
}

// newScheduler builds the scheduler and starts its worker pool. The caller
// passes defaulted engine options; clk drives the hot-arm flush timers.
func newScheduler(workers, quantum int, latency time.Duration, classes map[string]int, clk Clock) *scheduler {
	if clk == nil {
		clk = SystemClock()
	}
	s := &scheduler{
		quantum: quantum,
		latency: latency,
		classes: classes,
		workers: workers,
		clk:     clk,
		all:     make(map[*schedEntry]struct{}),
		done:    make(chan struct{}),
		stats:   make(map[string]*schedClassStats),
	}
	s.cond = sync.NewCond(&s.mu)
	for i := 0; i < workers; i++ {
		go s.worker()
	}
	go s.sweeper()
	return s
}

// weightFor resolves a class name to its scheduling weight. The empty
// class and unknown names weigh 1 (bulk semantics).
func (s *scheduler) weightFor(class string) int {
	if w, ok := s.classes[class]; ok && w > 0 {
		return w
	}
	return 1
}

// register seats one session: st is the store batches are claimed from,
// class selects the weight, maxBatch caps one turn's bytes (the session's
// MaxBatchBytes — one turn is one vectored write), chunkSize is the
// session's chunk granularity.
func (s *scheduler) register(st store, class string, maxBatch, chunkSize int) *schedEntry {
	if chunkSize < 1 {
		chunkSize = 1
	}
	e := &schedEntry{
		s:         s,
		st:        st,
		class:     class,
		weight:    s.weightFor(class),
		chunkSize: chunkSize,
		turn:      make(chan schedTurn, 1),
		state:     entryRunning, // the session holds its (virtual) first turn
	}
	e.budget = e.weight * s.quantum
	if maxBatch > 0 && e.budget > maxBatch {
		e.budget = maxBatch
	}
	if e.budget < 1 {
		e.budget = 1
	}
	e.want = 1 // first arm wakes on the first byte; full claims raise it
	st.SetNotify(e.notifyReady)
	s.mu.Lock()
	if s.closed {
		e.detached = true
	} else {
		s.all[e] = struct{}{}
	}
	s.mu.Unlock()
	return e
}

// next posts the session's current offset and parks until a worker hands
// over the next turn. Safe on a nil entry (unseated tree relays): callers
// get the inline marker and use the direct blocking path.
func (e *schedEntry) next(off uint64) schedTurn {
	if e == nil {
		return schedTurn{inline: true}
	}
	s := e.s
	s.mu.Lock()
	if s.closed || e.detached {
		s.mu.Unlock()
		return schedTurn{inline: true}
	}
	e.off = off
	e.pending = false
	e.state = entryReady
	s.runq = append(s.runq, e)
	s.cond.Signal()
	s.mu.Unlock()
	return <-e.turn
}

// notifyReady is the store's readiness hook: the armed offset became
// readable (or terminal). It runs under the store mutex — it only flips
// scheduler state (lock order: store.mu → scheduler.mu). It reports
// whether the appender should hand its processor over: the seat was idle
// at the first byte and is the engine's only one. A lone session forwards
// cut-through that way; beside other sessions, whose forwarders keep the
// processors busy anyway, a per-chunk yield only sends the appender to the
// back of the run queue.
func (e *schedEntry) notifyReady() (handOver bool) {
	s := e.s
	s.mu.Lock()
	switch {
	case e.detached || s.closed:
	case e.state == entryIdle:
		e.state = entryReady
		s.runq = append(s.runq, e)
		s.cond.Signal()
		handOver = e.want == 1 && len(s.all) == 1
	default:
		// Ready or mid-claim: remember the edge so the worker re-queues
		// instead of idling on a stale poll.
		e.pending = true
	}
	s.mu.Unlock()
	return handOver
}

// worker pulls ready entries off the run queue and serves each one turn.
func (s *scheduler) worker() {
	for {
		s.mu.Lock()
		for len(s.runq) == 0 && !s.closed {
			s.cond.Wait()
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		e := s.runq[0]
		s.runq = s.runq[1:]
		e.state = entryRunning
		off := e.off
		s.mu.Unlock()
		s.serve(e, off)
	}
}

// serve claims one batch for e and delivers it (or the terminal condition)
// to the parked session. With nothing claimable it arms the store notify
// and leaves the session parked — the notify re-queues the entry, which is
// exactly the batched wakeup.
func (s *scheduler) serve(e *schedEntry, off uint64) {
	for {
		t, idle := s.claim(e, off)
		if !idle {
			if t.n > 0 {
				s.mu.Lock()
				cs := s.stats[e.class]
				if cs == nil {
					cs = &schedClassStats{}
					s.stats[e.class] = cs
				}
				cs.turns++
				cs.bytes += uint64(t.n)
				s.mu.Unlock()
			}
			e.turn <- t
			return
		}
		s.mu.Lock()
		if e.detached || s.closed {
			s.mu.Unlock()
			e.turn <- schedTurn{inline: true}
			return
		}
		if e.pending {
			// Data (or a terminal) raced in between the poll and the arm.
			e.pending = false
			s.mu.Unlock()
			continue
		}
		e.state = entryIdle
		e.armedAt = s.clk.Now()
		s.mu.Unlock()
		return
	}
}

// sweeper bounds the staging time of threshold arms: every half interval
// it re-queues (with the flushed mark) entries that have sat idle behind a
// threshold for a full schedFlushDelay, so a producer pausing mid-stream
// cannot strand a sub-threshold backlog behind a line that never crosses.
// One goroutine per scheduler — threshold arms themselves stay timer-free.
func (s *scheduler) sweeper() {
	for {
		t := s.clk.NewTimer(schedFlushDelay / 2)
		select {
		case <-t.C():
		case <-s.done:
			t.Stop()
			return
		}
		now := s.clk.Now()
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return
		}
		for e := range s.all {
			if e.state == entryIdle && e.want > 1 && now.Sub(e.armedAt) >= schedFlushDelay {
				e.flushed = true
				e.state = entryReady
				s.runq = append(s.runq, e)
				s.cond.Signal()
			}
		}
		s.mu.Unlock()
	}
}

// claim builds one forwardable batch from e's store: consecutive ready
// chunks from off, up to the entry's byte budget and the vectored-write
// entry cap. It reports idle=true after arming the store notify when
// nothing is claimable yet; a terminal condition is delivered as the
// turn's error, but never before already-claimed data (the terminal
// resurfaces on the next turn).
func (s *scheduler) claim(e *schedEntry, off uint64) (schedTurn, bool) {
	s.mu.Lock()
	want := e.want
	flushed := e.flushed
	e.flushed = false
	s.mu.Unlock()

	// Adaptive quantum: the registered budget is a ceiling; the effective
	// turn is what the successor's measured drain rate moves within the
	// scheduler's target latency (floored at one chunk so progress never
	// stalls). Unmeasured sessions (rate 0) use the full ceiling.
	budget := e.budget
	if s.latency > 0 {
		if r := math.Float64frombits(e.rate.Load()); r > 0 {
			adaptive := int(r * s.latency.Seconds())
			if adaptive < e.chunkSize {
				adaptive = e.chunkSize
			}
			if adaptive < budget {
				budget = adaptive
			}
		}
	}

	batch := e.batch[:0]
	n := 0
	// Same cap rule as Node.nextBatch on the direct path: the first chunk
	// is always admitted, then only while a full-size one still fits —
	// the budget bounds one vectored write and is never overshot.
	for len(batch) < maxBatchChunks && (len(batch) == 0 || n+e.chunkSize <= budget) {
		c, err := e.st.PollChunkAt(off + uint64(n))
		if err == errNotReady {
			if len(batch) > 0 {
				break
			}
			// Batched wakeup: arm at the session's adaptive threshold —
			// one notify per staged batch, not one broadcast per chunk.
			// A flush wake that found nothing means the producer is
			// idle: drop to first-byte arming (minimum latency, and no
			// timer spinning on a quiet session). The store clamps the
			// threshold to stay crossable under back-pressure and fires
			// immediately on EOF/abort; armFlushLocked bounds the
			// staging time.
			if flushed {
				want = 1
				s.mu.Lock()
				e.want = 1
				s.mu.Unlock()
			}
			if e.st.ArmNotify(off, want) {
				e.batch = batch
				return schedTurn{}, true
			}
			continue // became ready between the poll and the arm
		}
		if err != nil {
			if len(batch) > 0 {
				break
			}
			e.batch = batch
			return schedTurn{err: err}, false
		}
		batch = append(batch, c)
		n += len(c.bytes())
	}
	e.batch = batch

	// Sticky binary threshold with half-budget hysteresis: a claim that
	// filled at least half the budget proves the pipeline is moving in
	// quantum-sized pulses, so the next arm waits for a full quantum (one
	// wakeup per pulse); anything less drops back to first-byte arming
	// for minimum latency. Deliberately not a proportional ramp — one
	// short claim (a worker racing a mid-pulse append) must not collapse
	// the threshold and restart per-chunk wakes.
	next := 1
	if 2*n >= budget {
		next = budget
	}
	s.mu.Lock()
	e.want = next
	s.mu.Unlock()
	return schedTurn{batch: batch, n: n}, false
}

// detach retires one entry: it leaves the run queue, pending notifies are
// ignored, and a parked session is released with the inline marker so it
// can drain its store directly (the store surfaces the abort). Safe to
// call more than once and on a nil entry.
func (s *scheduler) detach(e *schedEntry) {
	if e == nil {
		return
	}
	s.mu.Lock()
	if e.detached {
		s.mu.Unlock()
		return
	}
	e.detached = true
	delete(s.all, e)
	parked := false
	switch e.state {
	case entryReady:
		for i, q := range s.runq {
			if q == e {
				s.runq = append(s.runq[:i], s.runq[i+1:]...)
				break
			}
		}
		parked = true
	case entryIdle:
		parked = true
	}
	e.state = entryRunning
	s.mu.Unlock()
	e.st.SetNotify(nil)
	if parked {
		e.turn <- schedTurn{inline: true}
	}
}

// close shuts the scheduler down: workers exit, every parked session is
// released with the inline marker, later next() calls return it directly.
func (s *scheduler) close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.done)
	var parked []*schedEntry
	for e := range s.all {
		if e.state == entryIdle || e.state == entryReady {
			e.state = entryRunning
			parked = append(parked, e)
		}
		delete(s.all, e)
	}
	s.runq = nil
	s.cond.Broadcast()
	s.mu.Unlock()
	for _, e := range parked {
		e.turn <- schedTurn{inline: true}
	}
}

// classStats snapshots the per-class turn/byte counters.
func (s *scheduler) classStats() map[string]schedClassStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]schedClassStats, len(s.stats))
	for class, cs := range s.stats {
		out[class] = *cs
	}
	return out
}
