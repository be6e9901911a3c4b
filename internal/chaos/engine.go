package chaos

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"kascade/internal/benchkit"
	"kascade/internal/core"
	"kascade/internal/transport"
)

// Injection records one applied fault and when it landed.
type Injection struct {
	Fault Fault         `json:"fault"`
	At    time.Duration `json:"at"` // since session start
}

// Recovery measures the engine's reaction to one injected fault:
// DetectLatency is injection → the victim's failure being recorded by some
// survivor; ResumeLatency is injection → the first chunk ingested by the
// victim's nearest surviving downstream node after detection (the pipeline
// flowing again past the hole).
type Recovery struct {
	Victim        int           `json:"victim"`
	Detected      bool          `json:"detected"`
	DetectLatency time.Duration `json:"detect_latency"`
	Resumed       bool          `json:"resumed"`
	ResumeLatency time.Duration `json:"resume_latency"`
}

// NodeOutcome is the terminal state of one pipeline slot.
type NodeOutcome struct {
	Index         int    `json:"index"`
	Err           string `json:"err,omitempty"`
	Abandoned     bool   `json:"abandoned,omitempty"`
	AbandonReason string `json:"abandon_reason,omitempty"`
	ReceivedBytes uint64 `json:"received_bytes"`
	// Complete means the sink holds exactly the source payload.
	Complete bool `json:"complete"`
	// Corrupt means the sink diverged from the source prefix — always a
	// bug, even on a node that later died.
	Corrupt bool `json:"corrupt,omitempty"`
	// Reborn marks a slot whose outcome is the restarted node's.
	Reborn bool `json:"reborn,omitempty"`
}

// SiblingOutcome summarises the sibling sessions of a cross-session run
// (Scenario.Sessions > 1): broadcasts sharing every engine and data port
// with the faulted session, which must be completely undisturbed by its
// fault — bit-perfect, failure-free, and no slower than the same sessions
// in the healthy baseline phase of the same run (within a generous noise
// bound; Check enforces it).
type SiblingOutcome struct {
	// Sessions is the sibling session count (faulted session excluded).
	Sessions int `json:"sessions"`
	// Failures is the total failure count across every sibling's report.
	Failures int `json:"failures"`
	// Complete and Corrupt aggregate every sibling sink on every node.
	Complete bool `json:"complete"`
	Corrupt  bool `json:"corrupt,omitempty"`
	// ElapsedMs is the slowest sibling's wall clock in the faulted phase;
	// BaselineMs the slowest sibling's in the healthy baseline phase.
	ElapsedMs  float64 `json:"elapsed_ms"`
	BaselineMs float64 `json:"baseline_ms"`
}

// JoinOutcome is the terminal state of one scheduled late joiner.
type JoinOutcome struct {
	// Index is the pipeline index the planner granted (-1 if the join
	// never grafted).
	Index int `json:"index"`
	// Grafted means the join negotiation succeeded and a joiner node ran.
	Grafted bool `json:"grafted"`
	// RefuseReason is the typed refusal when the graft was declined
	// (session ended, broadcast completing, …) — an acceptable outcome
	// for a late mark, counted against the scenario's MinGrafted floor.
	RefuseReason string `json:"refuse_reason,omitempty"`
	// Head is the granted catch-up boundary: bytes the joiner had to
	// backfill from the sender.
	Head uint64 `json:"head,omitempty"`
	// Crashed means the schedule killed the joiner's host (CrashAt).
	Crashed       bool   `json:"crashed,omitempty"`
	Err           string `json:"err,omitempty"`
	ReceivedBytes uint64 `json:"received_bytes"`
	Complete      bool   `json:"complete"`
	Corrupt       bool   `json:"corrupt,omitempty"`
}

// Result is everything one chaos run produced.
type Result struct {
	Scenario   Scenario      `json:"scenario"`
	Report     *core.Report  `json:"report,omitempty"`
	Elapsed    time.Duration `json:"elapsed"`
	Outcomes   []NodeOutcome `json:"outcomes"`
	Injections []Injection   `json:"injections"`
	Recoveries []Recovery    `json:"recoveries"`
	// Joins records every scheduled late joiner's outcome, in schedule
	// order; Check asserts the dynamic-membership invariants over them.
	Joins []JoinOutcome `json:"joins,omitempty"`
	// Migrations counts executed re-ranking migrations (TraceReorg
	// events); Check bounds it by the scenario's Min/MaxMigrations.
	Migrations int `json:"migrations,omitempty"`
	// FinalView is the sender's final view occupancy (slot → pipeline
	// index) on Rerank runs: where every node ended up after re-ranking.
	FinalView []int `json:"final_view,omitempty"`
	// Sibling is set on cross-session runs (Scenario.Sessions > 1).
	Sibling *SiblingOutcome `json:"sibling,omitempty"`
	// Err is a harness-level failure: sender error, or the scenario
	// blowing its Timeout budget (the bounded-recovery bound).
	Err string `json:"err,omitempty"`
}

// chaosOptions are the engine options every scenario runs with: timeouts
// scaled for fast in-memory iteration, batching disabled so byte-offset
// marks trigger on chunk boundaries.
func (sc Scenario) options() core.Options {
	o := core.Options{
		ChunkSize:           sc.ChunkSize,
		WindowChunks:        sc.WindowChunks,
		MaxBatchBytes:       1, // below ChunkSize: one chunk per write
		WriteStallTimeout:   100 * time.Millisecond,
		PingTimeout:         60 * time.Millisecond,
		DialTimeout:         250 * time.Millisecond,
		DialRetries:         2,
		GetTimeout:          time.Second,
		FetchTimeout:        3 * time.Second,
		ReportTimeout:       3 * time.Second,
		UpstreamIdleTimeout: 1500 * time.Millisecond,
		MinThroughput:       sc.MinThroughput,
		SlowNodeGrace:       300 * time.Millisecond,
	}
	if sc.Rerank {
		// Chaos-speed re-ranking: rate spokes every 80ms so a collapsed
		// link is visible (and a migration plannable) well inside the
		// shrunk payload's transfer time.
		o.Rerank = true
		o.RerankInterval = 80 * time.Millisecond
		o.RerankMinInterval = 160 * time.Millisecond
	}
	return o
}

// DetectBudget bounds how long the engine may take to record an injected
// failure under the scenario options; Check enforces it per recovery.
const DetectBudget = 3 * time.Second

// prefixSink verifies bytes against the expected payload as they arrive
// and optionally throttles (the slow-receiver fault) or fails outright at
// a byte offset (the sink-crash fault). Any divergence is remembered as
// corruption; a prefix is always acceptable (aborted nodes legitimately
// hold partial data).
type prefixSink struct {
	want   []byte
	clk    core.Clock    // throttle pacing: the scenario's clock, not raw time.Sleep
	rate   atomic.Uint64 // bytes/s; 0 = full speed
	failAt int           // fail the write crossing this offset (0 = never)
	onFail func()        // observed exactly once, when the failure fires

	mu      sync.Mutex
	off     int
	corrupt bool
	failed  bool
}

func newPrefixSink(want []byte, clk core.Clock) *prefixSink {
	return &prefixSink{want: want, clk: clk}
}

func (s *prefixSink) Write(p []byte) (int, error) {
	if r := s.rate.Load(); r > 0 {
		s.clk.Sleep(time.Duration(float64(len(p)) / float64(r) * float64(time.Second)))
	}
	s.mu.Lock()
	end := s.off + len(p)
	if end > len(s.want) || !bytes.Equal(p, s.want[s.off:end]) {
		s.corrupt = true
	}
	if s.failAt > 0 && end >= s.failAt && !s.failed {
		s.failed = true
		onFail := s.onFail
		off := s.off
		s.mu.Unlock()
		if onFail != nil {
			onFail()
		}
		return 0, fmt.Errorf("chaos: injected sink crash at offset %d", off)
	}
	s.off = end
	s.mu.Unlock()
	return len(p), nil
}

func (s *prefixSink) state() (received int, corrupt bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.off, s.corrupt
}

// runner drives one scenario.
type runner struct {
	sc      Scenario
	fabric  *transport.Fabric
	payload []byte
	clk     core.Clock // scenario time source, shared with every sink
	sinks   []*prefixSink
	sess    *core.Session
	start   time.Time

	runCtx context.Context // bounds late-joiner admissions

	mu           sync.Mutex
	ingested     []uint64 // per-index high-water of TraceChunk
	pending      []Fault  // byte-mark faults not yet applied
	pendingJoins []*joinerRun
	joiners      []*joinerRun // schedule order, fired or not
	injections   []Injection
	events       []core.TraceEvent
	// settled is set once the run waits for rebornWG and joinWG; from
	// then on track counts nothing, since nobody would wait for it.
	settled bool

	rebornMu sync.Mutex
	reborn   map[int]*rebornNode
	rebornWG sync.WaitGroup
	joinWG   sync.WaitGroup

	timers   []*time.Timer
	timersMu sync.Mutex
}

// joinerRun tracks one scheduled late joiner from mark to terminal state.
type joinerRun struct {
	spec JoinSpec
	name string // fabric host
	sink *prefixSink

	// Guarded by runner.mu.
	idx     int // granted pipeline index; -1 until grafted
	head    uint64
	crashed bool
	refused string
	err     error
}

type rebornNode struct {
	sink *prefixSink
	node *core.Node
	err  error
	done chan struct{}
}

// Run executes one scenario end-to-end and returns its Result. The context
// bounds the whole run on top of the scenario's own Timeout budget.
func Run(ctx context.Context, sc Scenario) *Result {
	return RunWithClock(ctx, sc, core.SystemClock())
}

// RunWithClock executes one scenario with an injected time source: the
// engine options and the throttled sinks share clk, so a harness that
// controls it can pace slow-sink throttles and protocol timers without
// burning wall-clock time. (The fault schedule's own timers still run on
// wall clock; only engine-side and sink-side time goes through clk.)
func RunWithClock(ctx context.Context, sc Scenario, clk core.Clock) *Result {
	if sc.Timeout <= 0 {
		sc.Timeout = 30 * time.Second
	}
	if sc.Sessions > 1 {
		return runCross(ctx, sc, clk)
	}
	r := &runner{
		sc:       sc,
		fabric:   transport.NewFabric(sc.ChunkSize),
		payload:  benchkit.Payload(sc.PayloadSize, 42),
		clk:      clk,
		ingested: make([]uint64, sc.Nodes),
		reborn:   make(map[int]*rebornNode),
	}
	defer r.stopTimers()
	if sc.LinkRate > 0 {
		r.fabric.SetDefaultProfile(transport.Profile{Rate: sc.LinkRate})
	}

	peers := make([]core.Peer, sc.Nodes)
	r.sinks = make([]*prefixSink, sc.Nodes)
	for i := range peers {
		peers[i] = core.Peer{Name: r.host(i), Addr: r.host(i) + ":7000"}
		r.sinks[i] = newPrefixSink(r.payload, r.clk)
	}
	for i, js := range sc.Joins {
		r.joiners = append(r.joiners, &joinerRun{
			spec: js,
			name: fmt.Sprintf("j%d", i+1),
			sink: newPrefixSink(r.payload, r.clk),
			idx:  -1,
		})
	}

	// One time source for the whole scenario: the nodes' protocol timers
	// (Options.Clock) and the throttled sinks tick together.
	opts := sc.options()
	opts.Clock = r.clk
	cfg := core.SessionConfig{
		Peers:      peers,
		Opts:       opts,
		Topology:   sc.Topology,
		NetworkFor: func(i int) transport.Network { return r.fabric.Host(peers[i].Name) },
		SinkFor:    func(i int) io.Writer { return r.sinks[i] },
		Trace:      r.onTrace,
	}
	if sc.Stream {
		cfg.Input = bytes.NewReader(r.payload)
	} else {
		cfg.InputFile = benchkit.NewReaderAt(r.payload)
		cfg.InputSize = sc.PayloadSize
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	sess, err := core.StartSession(runCtx, cfg)
	if err != nil {
		return &Result{Scenario: sc, Err: fmt.Sprintf("start: %v", err)}
	}
	r.sess = sess
	r.runCtx = runCtx
	r.start = time.Now()
	r.armSchedule()

	res := &Result{Scenario: sc}
	done := make(chan *core.SessionResult, 1)
	go func() {
		sres, _ := sess.Wait()
		done <- sres
	}()
	var sres *core.SessionResult
	select {
	case sres = <-done:
	case <-time.After(sc.Timeout):
		// Bounded recovery violated: ask for a graceful QUIT, then give
		// the epilogue a short grace before declaring the run hung.
		res.Err = fmt.Sprintf("scenario exceeded its %v budget", sc.Timeout)
		cancel()
		select {
		case sres = <-done:
		case <-time.After(10 * time.Second):
			res.Err = "scenario hung past budget + grace; nodes leaked"
			return res
		}
	}
	res.Elapsed = time.Since(r.start)

	// Wait for restarted nodes and late joiners to settle.
	r.settle()
	rebornDone := make(chan struct{})
	go func() { r.rebornWG.Wait(); r.joinWG.Wait(); close(rebornDone) }()
	select {
	case <-rebornDone:
	case <-time.After(10 * time.Second):
		if res.Err == "" {
			res.Err = "restarted or joined node never finished"
		}
	}

	r.assemble(res, sres)
	return res
}

func (r *runner) host(i int) string { return fmt.Sprintf("n%d", i+1) }

// track counts one restarted node or joiner in wg, unless the run already
// waits for them; it reports whether it counted. Fault timers and the
// trace call it, so it may run at the same time as settle.
func (r *runner) track(wg *sync.WaitGroup) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.settled {
		return false
	}
	wg.Add(1)
	return true
}

// settle refuses every later track, so the waits that follow see only
// what was already counted.
func (r *runner) settle() {
	r.mu.Lock()
	r.settled = true
	r.mu.Unlock()
}

// armSchedule starts wall-clock faults and registers byte-mark faults
// and joins.
func (r *runner) armSchedule() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.sc.Faults {
		f := f
		if f.When.Bytes > 0 || f.When.Reorg {
			r.pending = append(r.pending, f)
			continue
		}
		r.afterFunc(f.When.After, func() { r.inject(f) })
	}
	for _, jr := range r.joiners {
		jr := jr
		if jr.spec.When.Bytes > 0 || jr.spec.When.Reorg {
			r.pendingJoins = append(r.pendingJoins, jr)
			continue
		}
		r.afterFunc(jr.spec.When.After, func() { r.launchJoin(jr) })
	}
}

// afterFunc is time.AfterFunc with shutdown tracking.
func (r *runner) afterFunc(d time.Duration, fn func()) {
	r.timersMu.Lock()
	defer r.timersMu.Unlock()
	r.timers = append(r.timers, time.AfterFunc(d, fn))
}

func (r *runner) stopTimers() {
	r.timersMu.Lock()
	defer r.timersMu.Unlock()
	for _, t := range r.timers {
		t.Stop()
	}
}

// onTrace is the core.Tracer: it records every event and fires byte-mark
// faults synchronously at the chunk boundary that crossed them, which is
// what makes a seeded schedule reproduce the same interleaving class run
// after run (no polling, no sleeps).
func (r *runner) onTrace(ev core.TraceEvent) {
	var due []Fault
	var launches, kills []*joinerRun
	r.mu.Lock()
	r.events = append(r.events, ev)
	if ev.Kind == core.TraceChunk && ev.Node < len(r.ingested) {
		if ev.Offset > r.ingested[ev.Node] {
			r.ingested[ev.Node] = ev.Offset
		}
		keep := r.pending[:0]
		for _, f := range r.pending {
			if !f.When.Reorg && f.When.Node == ev.Node && r.ingested[ev.Node] >= f.When.Bytes {
				due = append(due, f)
			} else {
				keep = append(keep, f)
			}
		}
		r.pending = keep
		keepJ := r.pendingJoins[:0]
		for _, jr := range r.pendingJoins {
			if !jr.spec.When.Reorg && jr.spec.When.Node == ev.Node && r.ingested[ev.Node] >= jr.spec.When.Bytes {
				launches = append(launches, jr)
			} else {
				keepJ = append(keepJ, jr)
			}
		}
		r.pendingJoins = keepJ
	}
	if ev.Kind == core.TraceChunk && ev.Node >= len(r.ingested) {
		// A late joiner's ingestion (catch-up backfill and live chunks
		// alike): fire its scheduled crash once it crosses the mark.
		for _, jr := range r.joiners {
			if jr.idx == ev.Node && jr.spec.CrashAt > 0 && !jr.crashed && ev.Offset >= jr.spec.CrashAt {
				jr.crashed = true
				kills = append(kills, jr)
			}
		}
	}
	if ev.Kind == core.TraceReorg {
		// A migration fired: release reorg-mark faults, resolving the
		// role sentinels against this event — the demoted node rides in
		// Peer, the promoted partner in the Detail annotation.
		keep := r.pending[:0]
		for _, f := range r.pending {
			if !f.When.Reorg {
				keep = append(keep, f)
				continue
			}
			switch f.Victim {
			case ReorgDemoted:
				f.Victim = ev.Peer
			case ReorgPromoted:
				p, ok := ev.ReorgPartner()
				if !ok {
					keep = append(keep, f)
					continue
				}
				f.Victim = p
			}
			due = append(due, f)
		}
		r.pending = keep
		keepJ := r.pendingJoins[:0]
		for _, jr := range r.pendingJoins {
			if jr.spec.When.Reorg {
				launches = append(launches, jr)
			} else {
				keepJ = append(keepJ, jr)
			}
		}
		r.pendingJoins = keepJ
	}
	r.mu.Unlock()
	for _, f := range due {
		r.inject(f)
	}
	for _, jr := range launches {
		r.launchJoin(jr)
	}
	for _, jr := range kills {
		r.killJoiner(jr)
	}
}

// launchJoin grafts one scheduled joiner in the background: the join
// negotiation does real protocol I/O against the live session, so it
// must not run on the trace callback.
func (r *runner) launchJoin(jr *joinerRun) {
	if !r.track(&r.joinWG) {
		r.mu.Lock()
		jr.refused = core.ErrSessionEnded.Error()
		r.mu.Unlock()
		return
	}
	go func() {
		defer r.joinWG.Done()
		h, err := r.sess.Join(r.runCtx, core.JoinConfig{
			Peer:    core.Peer{Name: jr.name, Addr: jr.name + ":7000"},
			Network: r.fabric.Host(jr.name),
			Sink:    jr.sink,
			Trace:   r.onTrace,
		})
		if err != nil {
			r.mu.Lock()
			jr.refused = err.Error()
			r.mu.Unlock()
			return
		}
		r.mu.Lock()
		jr.idx = h.Grant.Index
		jr.head = h.Grant.Head
		r.mu.Unlock()
		_, werr := h.Wait()
		r.mu.Lock()
		jr.err = werr
		r.mu.Unlock()
	}()
}

// killJoiner crashes a grafted joiner's host mid-run and records the
// injection under the joiner's granted pipeline index, so Check can hold
// the ring report to the same victim-naming bar as a scheduled Crash.
func (r *runner) killJoiner(jr *joinerRun) {
	at := time.Since(r.start)
	r.fabric.Kill(jr.name)
	r.mu.Lock()
	r.injections = append(r.injections, Injection{
		Fault: Fault{Kind: Crash, Victim: jr.idx, Peer: -1, When: jr.spec.When},
		At:    at,
	})
	r.mu.Unlock()
}

// inject applies one fault now and schedules its heal, if any.
func (r *runner) inject(f Fault) {
	victim := r.host(f.Victim)
	peer := r.host(f.peerIndex())
	// Timestamp before applying: a crash resets pipes synchronously, so
	// the first TraceFailureDetected can land before this function
	// returns and must not predate the recorded injection time.
	at := time.Since(r.start)
	switch f.Kind {
	case Crash:
		r.fabric.Kill(victim)
	case Restart:
		r.fabric.Kill(victim)
		d := f.Delay
		if d <= 0 {
			d = 100 * time.Millisecond
		}
		r.afterFunc(d, func() { r.revive(f.Victim) })
	case Partition:
		r.fabric.Partition(peer, victim)
		if f.Delay > 0 {
			r.afterFunc(f.Delay, func() { r.fabric.Heal(peer, victim) })
		}
	case AsymPartition:
		r.fabric.PartitionOneWay(peer, victim)
		if f.Delay > 0 {
			r.afterFunc(f.Delay, func() { r.fabric.HealOneWay(peer, victim) })
		}
	case RateCollapse:
		r.fabric.SetLiveProfile(peer, victim, transport.Profile{Rate: f.Rate})
		if f.Delay > 0 {
			r.afterFunc(f.Delay, func() {
				r.fabric.SetLiveProfile(peer, victim, transport.Profile{Rate: r.sc.LinkRate})
			})
		}
	case WriteStall:
		r.fabric.StallLink(peer, victim)
		if f.Delay > 0 {
			r.afterFunc(f.Delay, func() { r.fabric.ResumeLink(peer, victim) })
		}
	case SlowSink:
		r.sinks[f.Victim].rate.Store(uint64(f.Rate))
		if f.Delay > 0 {
			r.afterFunc(f.Delay, func() { r.sinks[f.Victim].rate.Store(0) })
		}
	}
	r.mu.Lock()
	r.injections = append(r.injections, Injection{Fault: f, At: at})
	r.mu.Unlock()
}

// revive brings a crashed host back as a fresh node in the same pipeline
// slot: the fabric host returns, a new listener binds the old address, and
// a brand-new engine instance re-runs index Victim. Whether the pipeline
// re-adopts it (FORGET → gap fetch from the sender) or turns it away with
// QUIT(excluded) depends on how far detection got — both are valid
// recoveries that Check accepts.
func (r *runner) revive(idx int) {
	if !r.track(&r.rebornWG) {
		return // the scenario is over; the host stays dead
	}
	host := r.host(idx)
	r.fabric.Revive(host)
	network := r.fabric.Host(host)
	l, err := network.Listen(r.sess.Plan.Peers[idx].Addr)
	if err != nil {
		r.rebornWG.Done()
		return // e.g. the address namespace is gone
	}
	rb := &rebornNode{sink: newPrefixSink(r.payload, r.clk), done: make(chan struct{})}
	node, err := core.NewNode(core.NodeConfig{
		Index:    idx,
		Plan:     r.sess.Plan,
		Network:  network,
		Listener: l,
		Sink:     rb.sink,
		Trace:    r.onTrace,
	})
	if err != nil {
		l.Close()
		r.rebornWG.Done()
		return
	}
	rb.node = node
	r.rebornMu.Lock()
	r.reborn[idx] = rb
	r.rebornMu.Unlock()
	go func() {
		defer r.rebornWG.Done()
		_, rerr := node.Run(context.Background())
		rb.err = rerr
		close(rb.done)
	}()
}

// assemble folds session results, reborn outcomes and trace events into
// the Result.
func (r *runner) assemble(res *Result, sres *core.SessionResult) {
	r.mu.Lock()
	res.Injections = append([]Injection(nil), r.injections...)
	events := append([]core.TraceEvent(nil), r.events...)
	for _, jr := range r.joiners {
		out := JoinOutcome{
			Index:        jr.idx,
			Grafted:      jr.idx >= 0,
			RefuseReason: jr.refused,
			Head:         jr.head,
			Crashed:      jr.crashed,
		}
		if jr.err != nil {
			out.Err = jr.err.Error()
		}
		received, corrupt := jr.sink.state()
		out.ReceivedBytes = uint64(received)
		out.Corrupt = corrupt
		out.Complete = !corrupt && int64(received) == r.sc.PayloadSize
		res.Joins = append(res.Joins, out)
	}
	r.mu.Unlock()

	for _, ev := range events {
		if ev.Kind == core.TraceReorg {
			res.Migrations++
		}
	}
	if r.sc.Rerank && len(r.sess.Nodes) > 0 {
		_, occupants, _, _ := r.sess.Nodes[0].ReorgState()
		res.FinalView = occupants
	}

	if sres != nil {
		res.Report = sres.Report
		if res.Report == nil && len(r.sess.Nodes) > 0 {
			// Sender failed; keep whatever its merged view was.
			res.Report = &core.Report{}
		}
		if res.Err == "" && sres.NodeErrs[0] != nil {
			res.Err = fmt.Sprintf("sender: %v", sres.NodeErrs[0])
		}
	}

	res.Outcomes = make([]NodeOutcome, r.sc.Nodes)
	for i := 0; i < r.sc.Nodes; i++ {
		out := NodeOutcome{Index: i}
		node := r.sess.Nodes[i]
		sink := r.sinks[i]
		var nerr error
		if sres != nil {
			nerr = sres.NodeErrs[i]
		}
		r.rebornMu.Lock()
		rb := r.reborn[i]
		r.rebornMu.Unlock()
		if rb != nil {
			// The slot's terminal state is the restarted node's.
			out.Reborn = true
			sink = rb.sink
			nerr = rb.err
			node = rb.node
		}
		if nerr != nil {
			out.Err = nerr.Error()
		}
		out.Abandoned = node.Abandoned()
		out.AbandonReason = node.AbandonReason()
		received, corrupt := sink.state()
		out.ReceivedBytes = uint64(received)
		out.Corrupt = corrupt
		out.Complete = !corrupt && int64(received) == r.sc.PayloadSize
		res.Outcomes[i] = out
	}

	res.Recoveries = r.extractRecoveries(res, events)
}

// extractRecoveries computes per-injection detection and resume latencies
// from the trace events.
func (r *runner) extractRecoveries(res *Result, events []core.TraceEvent) []Recovery {
	crashed := map[int]bool{}
	for _, inj := range res.Injections {
		if inj.Fault.Kind == Crash {
			crashed[inj.Fault.Victim] = true
		}
	}
	var out []Recovery
	for _, inj := range res.Injections {
		switch inj.Fault.Kind {
		case Crash, Restart, Partition, AsymPartition:
		default:
			continue // healed-in-place faults need not be "detected"
		}
		injAt := r.start.Add(inj.At)
		rec := Recovery{Victim: inj.Fault.Victim}
		var detectedAt time.Time
		for _, ev := range events {
			if ev.Kind == core.TraceFailureDetected && ev.Peer == inj.Fault.Victim && !ev.At.Before(injAt) {
				if !rec.Detected || ev.At.Before(detectedAt) {
					rec.Detected = true
					detectedAt = ev.At
				}
			}
		}
		if rec.Detected {
			rec.DetectLatency = detectedAt.Sub(injAt)
			// First chunk at the nearest surviving downstream node after
			// detection: the dissemination flows again past the hole.
			succ := r.resumeProbe(inj.Fault.Victim, crashed)
			if succ > 0 {
				var resumedAt time.Time
				for _, ev := range events {
					if ev.Kind == core.TraceChunk && ev.Node == succ && !ev.At.Before(detectedAt) {
						if !rec.Resumed || ev.At.Before(resumedAt) {
							rec.Resumed = true
							resumedAt = ev.At
						}
					}
				}
				if rec.Resumed {
					rec.ResumeLatency = resumedAt.Sub(injAt)
				}
			}
		}
		out = append(out, rec)
	}
	return out
}

// resumeProbe picks the node whose post-detection chunk ingestion proves
// the dissemination flows again past the victim: the nearest surviving
// successor on a chain, the first surviving descendant (BFS order) of the
// victim on a tree — that is where the re-grafted subtree resumes.
func (r *runner) resumeProbe(victim int, crashed map[int]bool) int {
	k, err := core.TreeArity(r.sc.Topology)
	if err != nil || k <= 1 {
		for s := victim + 1; s < r.sc.Nodes; s++ {
			if !crashed[s] {
				return s
			}
		}
		return -1
	}
	queue := treeKids(victim, k, r.sc.Nodes)
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		if !crashed[s] {
			return s
		}
		queue = append(queue, treeKids(s, k, r.sc.Nodes)...)
	}
	return -1
}

// treeKids mirrors the BFS k-ary child rule of core's tree plans
// (core/treeplan.go) for the resume probe.
func treeKids(i, k, n int) []int {
	lo := k*i + 1
	if lo >= n {
		return nil
	}
	hi := lo + k
	if hi > n {
		hi = n
	}
	kids := make([]int, 0, hi-lo)
	for c := lo; c < hi; c++ {
		kids = append(kids, c)
	}
	return kids
}
