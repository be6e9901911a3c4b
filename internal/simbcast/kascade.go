package simbcast

import (
	"sort"

	"kascade/internal/simnet"
)

// KascadeParams tunes the Kascade pipeline model.
type KascadeParams struct {
	// ChunkSize is the simulation granularity in bytes (default 8 MiB;
	// the real protocol chunk defaults to 256 KiB but fluid chunks this
	// size keep event counts manageable without changing steady-state
	// results).
	ChunkSize int64
	// Depth is the number of chunks in flight per hop (TCP streaming
	// depth; default 2).
	Depth int
	// WindowChunks is the per-node replay window in chunks (default 8).
	WindowChunks int
	// DetectTimeout is the §III-D1 stalled-write timer (default 1 s —
	// "every time a timeout is reached, one second is lost", §IV-G).
	DetectTimeout float64
	// DialFailCost is the cost of skipping one additional already-dead
	// successor (a refused dial; default 5 ms).
	DialFailCost float64
	// StartupTime is the deployment cost added before data flows
	// (TakTuk windowed startup; §III-B, Fig 14).
	StartupTime float64
}

func (p KascadeParams) withDefaults() KascadeParams {
	if p.ChunkSize <= 0 {
		p.ChunkSize = 8 << 20
	}
	if p.Depth <= 0 {
		p.Depth = 2
	}
	if p.WindowChunks <= 0 {
		p.WindowChunks = 8
	}
	if p.DetectTimeout <= 0 {
		p.DetectTimeout = 1.0
	}
	if p.DialFailCost <= 0 {
		p.DialFailCost = 0.005
	}
	return p
}

// NodeFailure kills the node at pipeline position Pos at time At seconds
// (relative to transfer start, matching the paper's §IV-G scenarios).
type NodeFailure struct {
	Pos int
	At  float64
}

type flowKind int

const (
	flowData flowKind = iota
	flowFetch
)

type flowMeta struct {
	kind  flowKind
	from  int // pipeline position of the sender
	to    int // pipeline position of the receiver
	chunk int
}

// kascadeSim carries the model state.
type kascadeSim struct {
	w      World
	order  []int
	p      KascadeParams
	nTotal int
	chunks int
	last   int64

	alive    []bool
	received []int // chunks fully received (source: all)
	written  []int // chunks on disk
	inFlight []int // data chunks flying into this position
	fetching []bool
	fetchEnd []int // exclusive upper chunk of the running gap fetch
	diskBusy []bool
	succ     []int // pipeline successor position (-1 = tail)
	pred     []int // pipeline predecessor position

	flows map[*simnet.Flow]flowMeta

	res      Result
	finished bool
	doneAt   float64
}

// Kascade simulates one broadcast over the pipeline `order` (element 0 is
// the sender) with the given failures injected. The source is file-backed
// (any offset can be re-served, as in all of the paper's experiments), so
// gap fetches always succeed; the streamed-source abandon cascade is
// exercised by the real engine's tests instead.
func Kascade(w World, order []int, bytes int64, p KascadeParams, failures []NodeFailure) Result {
	validateOrder(w, order)
	p = p.withDefaults()
	n := len(order)
	ks := &kascadeSim{
		w: w, order: order, p: p, nTotal: n,
		alive:    make([]bool, n),
		received: make([]int, n),
		written:  make([]int, n),
		inFlight: make([]int, n),
		fetching: make([]bool, n),
		fetchEnd: make([]int, n),
		diskBusy: make([]bool, n),
		succ:     make([]int, n),
		pred:     make([]int, n),
		flows:    make(map[*simnet.Flow]flowMeta),
	}
	ks.chunks, ks.last = chunkCount(bytes, p.ChunkSize)
	for i := 0; i < n; i++ {
		ks.alive[i] = true
		ks.succ[i] = i + 1
		ks.pred[i] = i - 1
	}
	ks.succ[n-1] = -1
	ks.received[0] = ks.chunks // file-backed source

	sim := w.Net().Sim
	sorted := append([]NodeFailure(nil), failures...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].At < sorted[j].At })
	for _, f := range sorted {
		f := f
		sim.At(p.StartupTime+f.At, func() { ks.kill(f.Pos) })
	}
	sim.At(p.StartupTime, func() { ks.pumpAll() })
	sim.Run()
	ks.checkDone() // covers degenerate zero-byte / single-node cases

	ks.res.Completed = make([]bool, n)
	for i := 0; i < n; i++ {
		ks.res.Completed[i] = ks.alive[i] && ks.nodeDone(i)
	}
	if !ks.finished {
		ks.doneAt = sim.Now()
	}
	ks.res.Duration = ks.doneAt
	return ks.res
}

// disk returns node k's disk stage; the sender (position 0) never writes.
func (ks *kascadeSim) disk(k int) *simnet.Link {
	if k == 0 {
		return nil
	}
	return ks.w.Disk(ks.order[k])
}

// availTo returns the highest chunk node k can start forwarding. Relays
// forward cut-through: a chunk may leave while it is still arriving (the
// real engine streams bytes as they come; at fluid granularity this keeps
// pipeline fill time proportional to latency, not to chunk time x hops).
func (ks *kascadeSim) availTo(k int) int {
	if k == 0 {
		return ks.received[0]
	}
	return ks.received[k] + ks.inFlight[k]
}

// bufBase returns the oldest chunk still in node k's replay window. The
// file-backed source retains everything.
func (ks *kascadeSim) bufBase(k int) int {
	if k == 0 {
		return 0
	}
	base := ks.received[k] - ks.p.WindowChunks
	if base < 0 {
		base = 0
	}
	return base
}

// freed returns how many chunks node k has released from its buffer (sent
// to the successor and written to disk, whichever is later).
func (ks *kascadeSim) freed(k int) int {
	sent := ks.received[k]
	if s := ks.succ[k]; s >= 0 && ks.alive[s] {
		sent = ks.received[s]
	}
	out := sent
	if ks.disk(k) != nil && ks.written[k] < out {
		out = ks.written[k]
	}
	return out
}

func (ks *kascadeSim) nodeDone(k int) bool {
	if ks.received[k] < ks.chunks {
		return false
	}
	if ks.disk(k) != nil && ks.written[k] < ks.chunks {
		return false
	}
	return true
}

func (ks *kascadeSim) checkDone() {
	if ks.finished {
		return
	}
	for i := 0; i < ks.nTotal; i++ {
		if ks.alive[i] && !ks.nodeDone(i) {
			return
		}
	}
	ks.finished = true
	ks.doneAt = ks.w.Net().Sim.Now()
}

// pumpAll lets every alive sender push as much as its successor can take.
func (ks *kascadeSim) pumpAll() {
	for k := 0; k < ks.nTotal; k++ {
		if ks.alive[k] {
			ks.pump(k)
		}
	}
	ks.checkDone()
}

func (ks *kascadeSim) pump(k int) {
	s := ks.succ[k]
	if s < 0 || !ks.alive[s] || ks.fetching[s] {
		return
	}
	for ks.inFlight[s] < ks.p.Depth {
		next := ks.received[s] + ks.inFlight[s]
		if next >= ks.chunks || next >= ks.availTo(k) {
			return
		}
		if next < ks.bufBase(k) {
			// The window no longer holds the successor's next chunk
			// (fresh rewire onto a lagging node): FORGET -> PGET.
			ks.startGapFetch(s, ks.bufBase(k))
			return
		}
		// Receiver buffer back-pressure (replay window bound).
		if ks.received[s]-ks.freed(s)+ks.inFlight[s] >= ks.p.WindowChunks {
			return
		}
		links, lat, maxRate := ks.w.Path(ks.order[k], ks.order[s])
		size := chunkBytes(next, ks.chunks, ks.p.ChunkSize, ks.last)
		ks.inFlight[s]++
		meta := flowMeta{kind: flowData, from: k, to: s, chunk: next}
		var fl *simnet.Flow
		fl = ks.w.Net().Start(size, lat, links, func(*simnet.Flow) {
			delete(ks.flows, fl)
			ks.arriveData(meta)
		})
		fl.MaxRate = maxRate
		fl.Meta = meta
		ks.flows[fl] = meta
	}
}

func (ks *kascadeSim) arriveData(m flowMeta) {
	if !ks.alive[m.to] {
		return
	}
	ks.inFlight[m.to]--
	ks.received[m.to]++
	ks.enqueueDisk(m.to)
	ks.pumpAll()
}

// enqueueDisk keeps the node's sequential disk writer busy.
func (ks *kascadeSim) enqueueDisk(k int) {
	disk := ks.disk(k)
	if disk == nil || ks.diskBusy[k] || ks.written[k] >= ks.received[k] {
		return
	}
	ks.diskBusy[k] = true
	idx := ks.written[k]
	size := chunkBytes(idx, ks.chunks, ks.p.ChunkSize, ks.last)
	ks.w.Net().Start(size, 0, []*simnet.Link{disk}, func(*simnet.Flow) {
		ks.diskBusy[k] = false
		if !ks.alive[k] {
			return
		}
		ks.written[k]++
		ks.enqueueDisk(k)
		ks.pumpAll()
	})
}

// startGapFetch pulls chunks [received[s], end) for node s straight from
// node 0 (the paper's PGET path).
func (ks *kascadeSim) startGapFetch(s, end int) {
	if ks.fetching[s] || ks.received[s] >= end {
		return
	}
	ks.fetching[s] = true
	ks.fetchEnd[s] = end
	ks.res.GapFetches++
	ks.fetchNext(s)
}

func (ks *kascadeSim) fetchNext(s int) {
	if !ks.alive[s] {
		return
	}
	if ks.received[s] >= ks.fetchEnd[s] {
		ks.fetching[s] = false
		ks.pumpAll()
		return
	}
	idx := ks.received[s]
	links, lat, maxRate := ks.w.Path(ks.order[0], ks.order[s])
	size := chunkBytes(idx, ks.chunks, ks.p.ChunkSize, ks.last)
	meta := flowMeta{kind: flowFetch, from: 0, to: s, chunk: idx}
	var fl *simnet.Flow
	fl = ks.w.Net().Start(size, lat, links, func(*simnet.Flow) {
		delete(ks.flows, fl)
		if !ks.alive[s] {
			return
		}
		ks.received[s]++
		ks.enqueueDisk(s)
		ks.fetchNext(s)
	})
	fl.MaxRate = maxRate
	fl.Meta = meta
	ks.flows[fl] = meta
}

// kill marks a node dead, cancels its traffic, and schedules the
// predecessor's recovery after the detection timeout (§III-D1).
func (ks *kascadeSim) kill(pos int) {
	if !ks.alive[pos] {
		return
	}
	ks.alive[pos] = false
	for fl, m := range ks.flows {
		if m.from != pos && m.to != pos {
			continue
		}
		ks.w.Net().Cancel(fl)
		delete(ks.flows, fl)
		// A canceled chunk into a surviving node frees its in-flight
		// slot (the dead sender's partial transfer is discarded and
		// replayed after recovery).
		if m.to != pos && ks.alive[m.to] && m.kind == flowData && ks.inFlight[m.to] > 0 {
			ks.inFlight[m.to]--
		}
	}
	ks.inFlight[pos] = 0
	// The alive predecessor whose successor just died detects the
	// failure one timeout later.
	p := ks.pred[pos]
	for p >= 0 && !ks.alive[p] {
		p = ks.pred[p]
	}
	if p >= 0 {
		deadPred := p
		ks.w.Net().Sim.After(ks.p.DetectTimeout, func() { ks.rewire(deadPred) })
	}
	ks.checkDone()
}

// rewire points node p at its next alive successor, charging a refused-
// dial cost per extra dead node skipped, then resumes the stream (replay
// from the new successor's offset, or a gap fetch when the window moved
// past it).
func (ks *kascadeSim) rewire(p int) {
	if !ks.alive[p] {
		return
	}
	s := ks.succ[p]
	skipped := 0
	for s >= 0 && !ks.alive[s] {
		s = ks.succ[s]
		skipped++
	}
	if skipped == 0 {
		return // already rewired by an earlier recovery
	}
	ks.res.Recoveries++
	ks.succ[p] = s
	if s >= 0 {
		ks.pred[s] = p
	}
	extra := float64(skipped-1) * ks.p.DialFailCost
	if extra > 0 {
		ks.w.Net().Sim.After(extra, func() { ks.pumpAll() })
		return
	}
	ks.pumpAll()
}
