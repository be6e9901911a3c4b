package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"kascade/internal/core"
	"kascade/internal/transport"
)

// benchOptions are the protocol options of the in-process workloads.
// Failure detection is slackened (3 s stall, 2 s ping) because 16 nodes on
// a two-core box can starve a PONG past the 500 ms production default and
// a healthy node would be named dead; a Fabric.Kill is detected through
// the reset path, which no timer gates.
func benchOptions(chunk int, class string) core.Options {
	return core.Options{
		ChunkSize:         chunk,
		WindowChunks:      32,
		Class:             class,
		WriteStallTimeout: 3 * time.Second,
		PingTimeout:       2 * time.Second,
	}
}

func hostName(i int) string { return "n" + strconv.Itoa(i+1) }

func fabricPeers(n int) []core.Peer {
	peers := make([]core.Peer, n)
	for i := range peers {
		peers[i] = core.Peer{Name: hostName(i), Addr: hostName(i) + ":7000"}
	}
	return peers
}

// session is one in-process broadcast to run and verify.
type session struct {
	kind     string // "bulk" or "small": labels the spans
	peers    []core.Peer
	topology string
	opts     core.Options
	pay      *payload
	id       uint64
	fabric   *transport.Fabric
	engines  []*core.Engine      // shared engines (mux-mixed), else nil
	nets     []transport.Network // the engines' networks, when engines != nil
	// victim > 0 kills that node's host when its sink crosses killAt.
	victim int
	killAt int64
	// flipAt > 0 makes receiver 1's sink corrupt that byte (negative test).
	flipAt int64
	// hideVictim drops the victim from the report before it is checked
	// (negative test: a report that omits the victim must fail the op).
	hideVictim bool
}

// run executes the broadcast through core.StartSession and Wait, then
// holds it to the benchmark's bar: no error, every surviving receiver
// byte-perfect, and a report naming the victim and nobody else.
func (s *session) run(rec *recorder) outcome {
	n := len(s.peers)
	sinks := make([]*crcSink, n)
	for i := 1; i < n; i++ {
		sinks[i] = &crcSink{}
	}
	if s.flipAt > 0 {
		sinks[1].flip = s.flipAt
	}
	base := time.Now()
	var killedAfter atomic.Int64 // since base; 0 = no kill yet
	if s.victim > 0 {
		name := s.peers[s.victim].Name
		sinks[s.victim].mark = s.killAt
		sinks[s.victim].trip = func() {
			killedAfter.Store(int64(time.Since(base)))
			s.fabric.Kill(name)
		}
	}

	cfg := core.SessionConfig{
		Peers:     s.peers,
		Opts:      s.opts,
		Topology:  s.topology,
		InputFile: s.pay,
		InputSize: s.pay.size(),
	}
	if s.engines != nil {
		cfg.Session = core.SessionID(s.id)
		cfg.EngineFor = func(i int) *core.Engine { return s.engines[i] }
		cfg.NetworkFor = func(i int) transport.Network { return s.nets[i] }
	} else {
		cfg.NetworkFor = func(i int) transport.Network { return s.fabric.Host(s.peers[i].Name) }
	}
	cfg.SinkFor = func(i int) io.Writer { return sinks[i] }

	var st *sessTrace
	if rec != nil {
		st = newSessTrace(rec, s, n)
		if rec.takeDetail(s.kind) {
			rec.detail.Add(1)
			defer rec.detail.Add(-1)
		}
		if s.engines == nil {
			cfg.NetworkFor = func(i int) transport.Network {
				return &tracedNet{inner: s.fabric.Host(s.peers[i].Name), rec: rec, node: i, parent: st.nodeSpan[i], sess: s.id}
			}
		}
		cfg.SinkFor = func(i int) io.Writer {
			return &tracedSink{w: sinks[i], rec: rec, node: i, parent: st.nodeSpan[i], sess: s.id}
		}
		cfg.InputFile = &tracedSource{r: s.pay, rec: rec, parent: st.nodeSpan[0], sess: s.id}
		cfg.Trace = st.hook
	}

	ctx, cancel := context.WithTimeout(context.Background(), repTimeout)
	defer cancel()
	t0 := time.Now()
	sess, err := core.StartSession(ctx, cfg)
	tStarted := time.Now()
	var res *core.SessionResult
	if err == nil {
		res, err = sess.Wait()
	}
	t1 := time.Now()
	out := outcome{wall: t1.Sub(t0)}
	if st != nil {
		var killed time.Time
		if d := killedAfter.Load(); d > 0 {
			killed = base.Add(time.Duration(d))
		}
		st.finish(t0, tStarted, t1, killed)
	}
	if err != nil {
		out.err = fmt.Errorf("%s session %d: %w", s.kind, s.id, err)
		return out
	}

	rep := res.Report
	if s.hideVictim {
		rep = &core.Report{TotalBytes: rep.TotalBytes}
	}
	if err := s.checkReport(rep); err != nil {
		out.err = fmt.Errorf("%s session %d: %w", s.kind, s.id, err)
		return out
	}
	for i := 1; i < n; i++ {
		if i == s.victim {
			continue
		}
		if res.NodeErrs[i] != nil {
			out.err = fmt.Errorf("%s session %d: node %d: %w", s.kind, s.id, i, res.NodeErrs[i])
			return out
		}
		if err := sinks[i].verify(s.pay); err != nil {
			out.err = fmt.Errorf("%s session %d: node %d: %w", s.kind, s.id, i, err)
			return out
		}
		out.delivered += s.pay.size()
	}
	return out
}

func (s *session) checkReport(rep *core.Report) error {
	if rep.Aborted {
		return fmt.Errorf("report says aborted")
	}
	if rep.TotalBytes != uint64(s.pay.size()) {
		return fmt.Errorf("report counts %d of %d bytes", rep.TotalBytes, s.pay.size())
	}
	var named []int
	for _, f := range rep.Failures {
		named = append(named, f.Index)
	}
	switch {
	case s.victim <= 0 && len(named) != 0:
		return fmt.Errorf("healthy broadcast reported failures %v", named)
	case s.victim > 0 && (len(named) != 1 || named[0] != s.victim):
		return fmt.Errorf("report names %v, want exactly node %d", named, s.victim)
	}
	return nil
}

// sessTrace collects one traced broadcast's Trace events. TraceChunk
// stamps land in a preallocated per-node table (one writer per row, no
// lock on the ingest path); the rare recovery events take a mutex.
type sessTrace struct {
	rec      *recorder
	s        *session
	span     uint32
	nodeSpan []uint32
	start    time.Time
	chunk    uint64
	arity    int              // the static tree's k; the chain is k = 1
	chunkAt  [][]atomic.Int64 // [node][chunk] ns since start, 0 = not seen
	finished []atomic.Int64   // ns since start

	mu         sync.Mutex
	accepted   []acceptEv
	gapFetches int
}

type acceptEv struct {
	node, peer int
	at         time.Time
}

func newSessTrace(rec *recorder, s *session, n int) *sessTrace {
	st := &sessTrace{rec: rec, s: s, span: rec.open(), start: time.Now(), chunk: uint64(s.opts.ChunkSize), arity: 1}
	if k, err := core.TreeArity(s.topology); err == nil && k > 1 {
		st.arity = k
	}
	st.nodeSpan = make([]uint32, n)
	st.chunkAt = make([][]atomic.Int64, n)
	st.finished = make([]atomic.Int64, n)
	chunks := (uint64(s.pay.size()) + st.chunk - 1) / st.chunk
	for i := range st.nodeSpan {
		st.nodeSpan[i] = rec.open()
		st.chunkAt[i] = make([]atomic.Int64, chunks)
	}
	return st
}

func (st *sessTrace) hook(ev core.TraceEvent) {
	switch ev.Kind {
	case core.TraceChunk:
		if c := (ev.Offset - 1) / st.chunk; ev.Offset > 0 && c < uint64(len(st.chunkAt[ev.Node])) {
			st.chunkAt[ev.Node][c].Store(int64(ev.At.Sub(st.start)))
		}
	case core.TraceFinished:
		st.finished[ev.Node].Store(int64(ev.At.Sub(st.start)))
	case core.TraceUpstreamAccepted:
		st.mu.Lock()
		st.accepted = append(st.accepted, acceptEv{ev.Node, ev.Peer, ev.At})
		st.mu.Unlock()
	case core.TraceGapFetchStart:
		st.mu.Lock()
		st.gapFetches++
		st.mu.Unlock()
	}
}

// parentOf is the static dissemination parent.
func (st *sessTrace) parentOf(i int) int { return (i - 1) / st.arity }

// finish turns the collected events into spans and per-layer samples.
func (st *sessTrace) finish(t0, tStarted, t1, killed time.Time) {
	rec, s := st.rec, st.s
	n := len(st.nodeSpan)
	rec.add(st.span, rec.root, "session "+s.kind, s.id, -1, t0, t1)
	rec.add(0, st.span, "core.StartSession", s.id, -1, t0, tStarted)
	rec.add(0, st.span, "core.Session.Wait", s.id, -1, tStarted, t1)

	var nodeWall int64
	var finMin, finMax int64
	for i := 0; i < n; i++ {
		end := t1
		if f := st.finished[i].Load(); f > 0 {
			end = st.start.Add(time.Duration(f))
			if i > 0 && i != s.victim {
				nodeWall += f
				if finMin == 0 || f < finMin {
					finMin = f
				}
				if f > finMax {
					finMax = f
				}
			}
		}
		rec.add(st.nodeSpan[i], st.span, "node", s.id, i, st.start, end)
	}

	// Hop lag: when a chunk reached node i minus when it reached i's
	// parent. The sender emits no TraceChunk, so hops out of node 0 are
	// not sampled; after a kill, orphans' later chunks have no stamp at
	// the dead parent and drop out by themselves.
	var lags []float64
	for i := 1; i < n; i++ {
		p := st.parentOf(i)
		if p == 0 {
			continue
		}
		for c := range st.chunkAt[i] {
			a, b := st.chunkAt[i][c].Load(), st.chunkAt[p][c].Load()
			if a > 0 && b > 0 {
				lags = append(lags, float64(a-b)/1e3)
			}
		}
	}
	sort.Float64s(lags)

	tail := st.chunkAt[n-1]
	first, last := tail[0].Load(), tail[len(tail)-1].Load()

	// Resume: the kill → the last orphan adopting its new parent.
	var resume time.Duration
	if !killed.IsZero() {
		for _, a := range st.accepted {
			if st.parentOf(a.node) == s.victim && a.at.Sub(killed) > resume {
				resume = a.at.Sub(killed)
			}
		}
		if resume > 0 {
			rec.add(0, st.span, "recovery "+s.peers[s.victim].Name, s.id, s.victim, killed, killed.Add(resume))
		}
	}

	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.nodeWallNs += nodeWall
	if s.kind == "bulk" {
		if len(lags) > 0 {
			rec.hopLagP50 = append(rec.hopLagP50, quantile(lags, 0.5))
			rec.hopLagP95 = append(rec.hopLagP95, quantile(lags, 0.95))
		}
		if finMax > 0 {
			rec.finishSkewMs = append(rec.finishSkewMs, float64(finMax-finMin)/1e6)
		}
		rec.gapFetches += st.gapFetches
		if resume > 0 {
			rec.resumeMs = append(rec.resumeMs, float64(resume)/1e6)
		}
	} else {
		// Where a 1 MiB session's time goes: set-up, first byte at the
		// tail, and the epilogue after its last byte.
		rec.sessionStartMs = append(rec.sessionStartMs, float64(tStarted.Sub(t0))/1e6)
		if first > 0 {
			rec.tailFirstMs = append(rec.tailFirstMs, float64(st.start.Add(time.Duration(first)).Sub(t0))/1e6)
		}
		if last > 0 {
			rec.epilogueMs = append(rec.epilogueMs, float64(t1.Sub(st.start.Add(time.Duration(last))))/1e6)
		}
	}
}

// inproc is what the three in-process workloads share: the bench process
// hosts every node, so its own rusage, resident size and allocations are
// the nodes'.
type inproc struct{}

func (inproc) inProcess() bool { return true }

func (inproc) cpu() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// rssMiB reads the current resident size. The harness samples it after
// every bulk broadcast and keeps the largest: VmHWM would also count the
// set-up repetitions' freed payloads.
func (inproc) rssMiB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseInt(f[1], 10, 64)
	return float64(pages*int64(os.Getpagesize())) / (1 << 20)
}
