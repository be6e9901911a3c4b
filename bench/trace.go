package main

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"kascade/internal/transport"
)

// span is one interval at a layer boundary. Spans of one broadcast share
// Session; Parent is the span that caused this one (0 for a root).
type span struct {
	ID      uint32 `json:"id"`
	Parent  uint32 `json:"parent"`
	Name    string `json:"name"`
	Session uint64 `json:"session"`
	Node    int    `json:"node"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// ioCount is what one side of a layer boundary saw: calls, bytes and the
// time spent inside them.
type ioCount struct {
	readCalls, readBytes, readNs    atomic.Int64
	writeCalls, writeBytes, writeNs atomic.Int64
}

func (c *ioCount) addRead(n int, d time.Duration) {
	c.readCalls.Add(1)
	c.readBytes.Add(int64(n))
	c.readNs.Add(int64(d))
}

func (c *ioCount) addWrite(n int64, d time.Duration) {
	c.writeCalls.Add(1)
	c.writeBytes.Add(n)
	c.writeNs.Add(int64(d))
}

// Connection directions: a node reads its payload on connections it
// accepted (the predecessor dials) and writes it on connections it dialed.
const (
	dirAccepted = iota
	dirDialed
)

// maxDetailSpans bounds the per-call spans one traced run keeps: a deep
// chain makes ~60k conn calls per 256 MiB broadcast, so per-call spans are
// recorded for the first traced broadcast of each kind only (detail mode)
// while the counters above cover every traced broadcast.
const maxDetailSpans = 1 << 20

// recorder is the traced run's in-memory trace: spans plus the counters
// taken at the same boundaries. Nothing is written until the run ends.
type recorder struct {
	epoch time.Time

	// on gates the decorators: off, they hand through the raw connection,
	// so the reference phase of a traced run pays no per-call cost.
	on atomic.Bool
	// detail > 0 additionally records one span per conn/sink/source call;
	// it counts the broadcasts currently running in detail mode.
	detail   atomic.Int32
	detailed map[string]bool // kinds that had their detailed broadcast (mu)

	nextID atomic.Uint32

	calls, dropped atomic.Int64 // per-call spans taken, and refused at the cap

	mu     sync.Mutex
	spans  []span
	dialNs []int64

	conns  atomic.Int64
	nodes  [][2]ioCount // per node: accepted, dialed
	sink   ioCount      // receivers' sink writers
	source ioCount      // the sender's InputFile

	// root is the traced phase's span; sessions hang below it.
	root      uint32
	rootStart time.Time
	// Samples the sessions' Trace hooks produced (sessTrace.finish),
	// guarded by mu: per bulk broadcast, then per small one.
	hopLagP50, hopLagP95, finishSkewMs, resumeMs []float64
	sessionStartMs, tailFirstMs, epilogueMs      []float64
	gapFetches                                   int
	nodeWallNs                                   int64 // receivers' Run walls, summed
}

func newRecorder(nodes int) *recorder {
	return &recorder{epoch: time.Now(), nodes: make([][2]ioCount, nodes), detailed: map[string]bool{}}
}

// takeDetail reports whether this broadcast is the first traced one of its
// kind, and so the one whose every call gets a span.
func (r *recorder) takeDetail(kind string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.detailed[kind] {
		return false
	}
	r.detailed[kind] = true
	return true
}

func (r *recorder) since(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// open reserves a span ID, so children can name their parent before the
// parent's end is known.
func (r *recorder) open() uint32 { return r.nextID.Add(1) }

// add stores a finished span under a reserved (or fresh, id 0) ID.
func (r *recorder) add(id, parent uint32, name string, sess uint64, node int, start, end time.Time) uint32 {
	if id == 0 {
		id = r.open()
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Session: sess, Node: node, StartNs: r.since(start), EndNs: r.since(end)})
	r.mu.Unlock()
	return id
}

// call records one per-call span in detail mode, up to the cap.
func (r *recorder) call(parent uint32, name string, sess uint64, node int, start time.Time, d time.Duration) {
	if r.detail.Load() == 0 {
		return
	}
	if r.calls.Add(1) > maxDetailSpans {
		r.dropped.Add(1)
		return
	}
	r.add(0, parent, name, sess, node, start, start.Add(d))
}

// writeSpans dumps the trace as JSON lines, one span each.
func (r *recorder) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedNet decorates one node's transport.Network. parent and sess label
// the per-call spans: a dedicated session's node span, or — on a shared
// engine, whose connections cannot be told apart from outside before their
// HELLO — the engine's host span with session 0.
type tracedNet struct {
	inner  transport.Network
	rec    *recorder
	node   int
	parent uint32
	sess   uint64
}

func (t *tracedNet) Listen(addr string) (transport.Listener, error) {
	l, err := t.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &tracedListener{Listener: l, t: t}, nil
}

func (t *tracedNet) Dial(addr string, timeout time.Duration) (transport.Conn, error) {
	if !t.rec.on.Load() {
		return t.inner.Dial(addr, timeout)
	}
	start := time.Now()
	c, err := t.inner.Dial(addr, timeout)
	d := time.Since(start)
	t.rec.mu.Lock()
	t.rec.dialNs = append(t.rec.dialNs, int64(d))
	t.rec.mu.Unlock()
	t.rec.call(t.parent, "transport.dial", t.sess, t.node, start, d)
	if err != nil {
		return nil, err
	}
	return t.wrap(c, dirDialed), nil
}

func (t *tracedNet) wrap(c transport.Conn, dir int) transport.Conn {
	t.rec.conns.Add(1)
	bw, _ := c.(transport.BuffersWriter)
	return &tracedConn{Conn: c, bw: bw, t: t, n: &t.rec.nodes[t.node][dir]}
}

type tracedListener struct {
	transport.Listener
	t *tracedNet
}

func (l *tracedListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil || !l.t.rec.on.Load() {
		return c, err
	}
	return l.t.wrap(c, dirAccepted), nil
}

// tracedConn times every Read and Write. It forwards WriteBuffers, so the
// traced run measures core's vectored write and not the sequential
// fallback. It does not forward transport.Splicer: splice moves bytes
// between two raw sockets and cannot engage through a decorator (the
// in-process workloads run on the Fabric, which never splices anyway).
type tracedConn struct {
	transport.Conn
	bw transport.BuffersWriter
	t  *tracedNet
	n  *ioCount
}

func (c *tracedConn) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Read(p)
	d := time.Since(start)
	c.n.addRead(n, d)
	c.t.rec.call(c.t.parent, "transport.read", c.t.sess, c.t.node, start, d)
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Write(p)
	d := time.Since(start)
	c.n.addWrite(int64(n), d)
	c.t.rec.call(c.t.parent, "transport.write", c.t.sess, c.t.node, start, d)
	return n, err
}

func (c *tracedConn) WriteBuffers(bufs [][]byte) (int64, error) {
	start := time.Now()
	var n int64
	var err error
	if c.bw != nil {
		n, err = c.bw.WriteBuffers(bufs)
	} else {
		n, err = transport.WriteBuffers(c.Conn, bufs)
	}
	d := time.Since(start)
	c.n.addWrite(n, d)
	c.t.rec.call(c.t.parent, "transport.writev", c.t.sess, c.t.node, start, d)
	return n, err
}

// tracedSink times a receiver's sink writes.
type tracedSink struct {
	w      io.Writer
	rec    *recorder
	node   int
	parent uint32
	sess   uint64
}

func (s *tracedSink) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := s.w.Write(p)
	d := time.Since(start)
	s.rec.sink.addWrite(int64(n), d)
	s.rec.call(s.parent, "sink.write", s.sess, s.node, start, d)
	return n, err
}

// tracedSource times the sender's reads of the payload.
type tracedSource struct {
	r      io.ReaderAt
	rec    *recorder
	parent uint32
	sess   uint64
}

func (s *tracedSource) ReadAt(p []byte, off int64) (int, error) {
	start := time.Now()
	n, err := s.r.ReadAt(p, off)
	d := time.Since(start)
	s.rec.source.addRead(n, d)
	s.rec.call(s.parent, "source.read", s.sess, 0, start, d)
	return n, err
}

// layer turns the counters and samples into the transport, core, sink and
// source rows. delivered is the GiB of payload the traced phase put into
// verified receivers: every per-GiB row shares that base with
// cpu_s_per_GiB, so busy seconds compare with CPU seconds directly.
func (r *recorder) layer(m map[string]float64, delivered float64) {
	var wCalls, wBytes, wNs, rCalls, rNs, ingestNs int64
	for i := range r.nodes {
		for dir := range r.nodes[i] {
			c := &r.nodes[i][dir]
			wCalls += c.writeCalls.Load()
			wBytes += c.writeBytes.Load()
			wNs += c.writeNs.Load()
			rCalls += c.readCalls.Load()
			rNs += c.readNs.Load()
		}
		if i > 0 {
			ingestNs += r.nodes[i][dirAccepted].readNs.Load()
		}
	}
	if wCalls == 0 || delivered <= 0 {
		return // no decorated connection: the workload runs in other processes
	}
	wireMiB := float64(wBytes) / (1 << 20)
	m["transport.write_busy_s_per_GiB"] = float64(wNs) / 1e9 / delivered
	m["transport.read_wait_s_per_GiB"] = float64(rNs) / 1e9 / delivered
	m["transport.bytes_per_write"] = float64(wBytes) / float64(wCalls)
	m["transport.write_calls_per_MiB"] = float64(wCalls) / wireMiB
	m["transport.read_calls_per_MiB"] = float64(rCalls) / wireMiB
	m["transport.wire_overhead_share"] = (float64(wBytes) - delivered*(1<<30)) / (delivered * (1 << 30))
	m["transport.conns_opened"] = float64(r.conns.Load())
	m["sink.write_busy_s_per_GiB"] = float64(r.sink.writeNs.Load()) / 1e9 / delivered
	m["source.read_busy_s_per_GiB"] = float64(r.source.readNs.Load()) / 1e9 / delivered

	r.mu.Lock()
	defer r.mu.Unlock()
	dials := make([]float64, len(r.dialNs))
	for i, d := range r.dialNs {
		dials[i] = float64(d) / 1e6
	}
	m["transport.dial_ms_p50"] = median(dials)
	m["core.hop_lag_us_p50"] = median(r.hopLagP50)
	m["core.hop_lag_us_p95"] = median(r.hopLagP95)
	m["core.finish_skew_ms"] = median(r.finishSkewMs)
	m["core.session_start_ms"] = median(r.sessionStartMs)
	m["core.tail_first_chunk_ms"] = median(r.tailFirstMs)
	m["core.epilogue_ms"] = median(r.epilogueMs)
	m["core.recovery_resume_ms_p50"] = median(r.resumeMs)
	m["core.gap_fetches"] = float64(r.gapFetches)
	// Ingest self time: the receivers' Run walls minus the time their
	// payload connections spent inside Read and their sinks inside Write
	// — framing, window append, back-pressure. Writes to successors run on
	// the manager goroutine, concurrently, and are write_busy above;
	// subtracting them too would count one second twice.
	if self := r.nodeWallNs - ingestNs - r.sink.writeNs.Load(); self > 0 {
		m["core.node_self_s_per_GiB"] = float64(self) / 1e9 / delivered
	}
}
