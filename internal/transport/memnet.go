package transport

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Fabric is an in-memory network of named hosts. It exists so that the
// protocol engines can be exercised — including their failure handling —
// without real sockets: tests script node kills, connection resets and
// link profiles while the engines run unmodified.
//
// A Fabric hands out one Network per host via Host. Connections between
// hosts are buffered full-duplex pipes (pipe.go) with optional per-link
// shaping (shaper.go).
type Fabric struct {
	mu        sync.Mutex
	listeners map[string]*memListener // bound address -> listener
	down      map[string]bool         // hosts that were killed
	conns     map[*pipeConn]string    // open endpoints -> owning host
	profiles  map[string]Profile      // "src->dst" host pair -> shaping
	cut       map[string]bool         // "src->dst" partitioned directions
	stalled   map[string][]*halfPipe  // "src->dst" -> pipes paused by a fault
	bufSize   int
}

// NewFabric returns an empty fabric. bufSize is the per-direction pipe
// capacity in bytes — how far a writer may run ahead of its reader before
// it blocks; 0 selects the default (256 KiB). Dialing reserves nothing: a
// direction takes a ring of that size from a process-wide pool on its first
// write and returns it when the connection closes or breaks.
func NewFabric(bufSize int) *Fabric {
	return &Fabric{
		listeners: make(map[string]*memListener),
		down:      make(map[string]bool),
		conns:     make(map[*pipeConn]string),
		profiles:  make(map[string]Profile),
		cut:       make(map[string]bool),
		stalled:   make(map[string][]*halfPipe),
		bufSize:   bufSize,
	}
}

// SetLinkProfile shapes traffic flowing from host src to host dst.
// Direction matters: shape both directions with two calls.
func (f *Fabric) SetLinkProfile(src, dst string, p Profile) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.profiles[src+"->"+dst] = p
}

// SetDefaultProfile shapes all links that have no specific profile.
func (f *Fabric) SetDefaultProfile(p Profile) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.profiles["*->*"] = p
}

// Host returns the Network as seen from the named host.
func (f *Fabric) Host(name string) Network {
	return &hostNet{fabric: f, host: name}
}

// Kill abruptly removes a host: its listeners stop accepting, every open
// connection touching it is reset (both endpoints observe ErrReset), and
// future dials to it are refused. This models a node crash as the paper's
// fault-injection experiments require.
func (f *Fabric) Kill(host string) {
	f.mu.Lock()
	f.down[host] = true
	var toBreak []*pipeConn
	for c, owner := range f.conns {
		if owner == host || c.remote == host || hostOf(c.remote) == host || hostOf(c.local) == host {
			toBreak = append(toBreak, c)
		}
	}
	var toClose []*memListener
	for addr, l := range f.listeners {
		if hostOf(addr) == host {
			toClose = append(toClose, l)
			delete(f.listeners, addr)
		}
	}
	f.mu.Unlock()
	for _, c := range toBreak {
		c.breakConn(ErrReset)
	}
	for _, l := range toClose {
		l.close()
	}
}

// Revive clears the killed flag so the host may listen and dial again
// (used by tests that model node reboot).
func (f *Fabric) Revive(host string) {
	f.mu.Lock()
	delete(f.down, host)
	f.mu.Unlock()
}

// dirConns returns the open endpoints whose egress direction is src->dst.
// Caller holds f.mu. Each logical connection appears exactly once: the
// endpoint living on src that writes towards dst.
func (f *Fabric) dirConns(src, dst string) []*pipeConn {
	var out []*pipeConn
	for c := range f.conns {
		if hostOf(c.local) == src && hostOf(c.remote) == dst {
			out = append(out, c)
		}
	}
	return out
}

// pauseDir stalls the src->dst direction of every open connection and
// remembers the affected pipes, so a later resume reaches them even after
// one endpoint closed its handle (a predecessor that declared the victim
// dead and hung up mid-partition). cut additionally blocks new dials.
func (f *Fabric) pauseDir(src, dst string, cut bool) {
	key := src + "->" + dst
	f.mu.Lock()
	if cut {
		f.cut[key] = true
	}
	var pipes []*halfPipe
	for _, c := range f.dirConns(src, dst) {
		pipes = append(pipes, c.tx)
	}
	f.stalled[key] = append(f.stalled[key], pipes...)
	f.mu.Unlock()
	for _, p := range pipes {
		p.setPaused(true)
	}
}

// resumeDir resumes every pipe paused in the src->dst direction; heal also
// lifts the dial block.
func (f *Fabric) resumeDir(src, dst string, heal bool) {
	key := src + "->" + dst
	f.mu.Lock()
	if heal {
		delete(f.cut, key)
	}
	pipes := f.stalled[key]
	delete(f.stalled, key)
	f.mu.Unlock()
	for _, p := range pipes {
		p.setPaused(false)
	}
}

// Partition cuts both directions between hosts a and b: bytes in flight
// stall (they do not error — a routing black hole, not a reset) and new
// dials between the two hosts are refused, since a TCP handshake needs both
// directions. Heal undoes it. Liveness probes between the two hosts fail,
// so the §III-D1 detector classifies the far side as dead.
func (f *Fabric) Partition(a, b string) {
	f.pauseDir(a, b, true)
	f.pauseDir(b, a, true)
}

// Heal lifts a Partition between a and b: stalled connections resume
// byte-exactly and dials succeed again.
func (f *Fabric) Heal(a, b string) {
	f.resumeDir(a, b, true)
	f.resumeDir(b, a, true)
}

// PartitionOneWay cuts only the src->dst direction: src's writes towards
// dst stall while dst->src traffic keeps flowing. New dials between the two
// hosts are still refused in both directions (the handshake crosses the cut
// direction either way).
func (f *Fabric) PartitionOneWay(src, dst string) { f.pauseDir(src, dst, true) }

// HealOneWay lifts a PartitionOneWay.
func (f *Fabric) HealOneWay(src, dst string) { f.resumeDir(src, dst, true) }

// Partitioned reports whether the src->dst direction is currently cut.
func (f *Fabric) Partitioned(src, dst string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cut[src+"->"+dst]
}

// cutBetween reports whether any direction between two hosts is cut.
// Caller holds f.mu.
func (f *Fabric) cutBetween(a, b string) bool {
	return f.cut[a+"->"+b] || f.cut[b+"->"+a]
}

// SetLiveProfile reshapes the src->dst direction of every open connection
// AND future dials — the rate-collapse fault. Unlike SetLinkProfile (which
// only affects connections dialed afterwards), the new profile takes effect
// on in-flight transfers at their next write.
func (f *Fabric) SetLiveProfile(src, dst string, p Profile) {
	f.mu.Lock()
	f.profiles[src+"->"+dst] = p
	conns := f.dirConns(src, dst)
	f.mu.Unlock()
	sh := newShaper(p)
	if p.Rate <= 0 && p.Latency <= 0 {
		sh = nil // unshaped: restore the fast path
	}
	for _, c := range conns {
		c.writeShape.Store(sh)
	}
}

// StallLink pauses the src->dst direction of every open connection without
// touching future dials: in-flight writes stall (the §III-D1 write-stall
// case) but a fresh liveness probe still connects and answers, so the far
// host is correctly classified as slow-but-alive. ResumeLink resumes the
// stalled bytes exactly where they stopped.
func (f *Fabric) StallLink(src, dst string) { f.pauseDir(src, dst, false) }

// ResumeLink resumes connections stalled by StallLink.
func (f *Fabric) ResumeLink(src, dst string) { f.resumeDir(src, dst, false) }

// Down reports whether the host has been killed.
func (f *Fabric) Down(host string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.down[host]
}

// hostOf extracts the host component of "host:port".
func hostOf(addr string) string {
	if i := strings.LastIndexByte(addr, ':'); i >= 0 {
		return addr[:i]
	}
	return addr
}

func (f *Fabric) profileFor(src, dst string) (Profile, bool) {
	if p, ok := f.profiles[src+"->"+dst]; ok {
		return p, true
	}
	p, ok := f.profiles["*->*"]
	return p, ok
}

type hostNet struct {
	fabric *Fabric
	host   string
}

func (hn *hostNet) Listen(addr string) (Listener, error) {
	full := hn.qualify(addr)
	f := hn.fabric
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.down[hn.host] {
		return nil, fmt.Errorf("memnet listen %s: host %s is down: %w", full, hn.host, ErrRefused)
	}
	if _, exists := f.listeners[full]; exists {
		return nil, fmt.Errorf("memnet listen %s: address in use", full)
	}
	l := &memListener{
		fabric:  f,
		addr:    full,
		pending: make(chan *pipeConn, 64),
		done:    make(chan struct{}),
	}
	f.listeners[full] = l
	return l, nil
}

func (hn *hostNet) Dial(addr string, timeout time.Duration) (Conn, error) {
	f := hn.fabric
	f.mu.Lock()
	if f.down[hn.host] {
		f.mu.Unlock()
		return nil, fmt.Errorf("memnet dial from dead host %s: %w", hn.host, ErrRefused)
	}
	target, ok := f.listeners[addr]
	if !ok || f.down[hostOf(addr)] {
		f.mu.Unlock()
		return nil, fmt.Errorf("memnet dial %s: %w", addr, ErrRefused)
	}
	if f.cutBetween(hn.host, hostOf(addr)) {
		f.mu.Unlock()
		return nil, fmt.Errorf("memnet dial %s: partitioned: %w", addr, ErrRefused)
	}
	localAddr := hn.host + ":0"
	cLocal, cRemote := newPipePair(localAddr, addr, f.bufSize)
	if p, ok := f.profileFor(hn.host, hostOf(addr)); ok {
		cLocal.writeShape.Store(newShaper(p))
	}
	if p, ok := f.profileFor(hostOf(addr), hn.host); ok {
		cRemote.writeShape.Store(newShaper(p))
	}
	f.conns[cLocal] = hn.host
	f.conns[cRemote] = hostOf(addr)
	cLocal.onClose = func() { f.forget(cLocal) }
	cRemote.onClose = func() { f.forget(cRemote) }
	f.mu.Unlock()

	var timer <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timer = t.C
	}
	select {
	case target.pending <- cRemote:
		return cLocal, nil
	case <-target.done:
		f.forget(cLocal, cRemote)
		return nil, fmt.Errorf("memnet dial %s: %w", addr, ErrRefused)
	case <-timer:
		f.forget(cLocal, cRemote)
		return nil, &timeoutError{"dial " + addr}
	}
}

func (hn *hostNet) qualify(addr string) string {
	if strings.HasPrefix(addr, ":") {
		return hn.host + addr
	}
	return addr
}

func (f *Fabric) forget(conns ...*pipeConn) {
	f.mu.Lock()
	for _, c := range conns {
		delete(f.conns, c)
	}
	f.mu.Unlock()
}

type memListener struct {
	fabric    *Fabric
	addr      string
	pending   chan *pipeConn
	done      chan struct{}
	closeOnce sync.Once
}

func (l *memListener) Accept() (Conn, error) {
	select {
	case c := <-l.pending:
		return c, nil
	case <-l.done:
		return nil, fmt.Errorf("memnet accept %s: %w", l.addr, ErrClosed)
	}
}

func (l *memListener) Close() error {
	l.fabric.mu.Lock()
	if l.fabric.listeners[l.addr] == l {
		delete(l.fabric.listeners, l.addr)
	}
	l.fabric.mu.Unlock()
	l.close()
	return nil
}

func (l *memListener) close() {
	l.closeOnce.Do(func() { close(l.done) })
}

func (l *memListener) Addr() string { return l.addr }
