package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"kascade/internal/core"
	"kascade/internal/transport"
)

const muxNodes = 5

// muxMixed: five shared core.Engines on a Fabric carrying two closed-loop
// clients at once — back-to-back bulk-class broadcasts and back-to-back
// 1 MiB interactive-class ones. It uses the same forwarding core as
// deep-chain differently: per-session set-up, admission and the weighted
// scheduler decide the small sessions, bytes decide the bulk ones, so a
// batching gain for bulk that costs small-session latency shows here.
type muxMixed struct {
	inproc
	cfg      config
	bulkPay  *payload
	smallPay *payload
	peers    []core.Peer
	fabric   *transport.Fabric
	engines  []*core.Engine
	nets     []transport.Network
	ids      sessionIDs

	// Traced run only: the engines' host spans and the park sampler.
	hostSpan    []uint32
	parkedPeak  atomic.Int64
	stopSampler chan struct{}
	sampler     sync.WaitGroup
}

func (w *muxMixed) name() string          { return "mux-mixed" }
func (w *muxMixed) concurrentSmall() bool { return true }
func (w *muxMixed) shape() shape {
	return shape{nodes: muxNodes, bulkSize: w.cfg.muxBulk, smallSize: w.cfg.small, bulkChunk: bulkChunk, smallChunk: smallChunk}
}

func (w *muxMixed) setup(rec *recorder) error {
	w.bulkPay = newPayload(w.cfg.muxBulk, w.cfg.seed+seedBulk)
	w.smallPay = newPayload(w.cfg.small, w.cfg.seed+seedSmall)
	w.peers = fabricPeers(muxNodes)
	w.fabric = transport.NewFabric(1 << 20)
	w.ids = sessionIDs{base: w.cfg.seed << 20}
	w.engines = make([]*core.Engine, muxNodes)
	w.nets = make([]transport.Network, muxNodes)
	w.hostSpan = make([]uint32, muxNodes)
	for i := range w.engines {
		w.nets[i] = w.fabric.Host(w.peers[i].Name)
		if rec != nil {
			// One decorator per engine for the engine's whole life; it
			// hands raw connections through while rec is off.
			w.hostSpan[i] = rec.open()
			w.nets[i] = &tracedNet{inner: w.nets[i], rec: rec, node: i, parent: w.hostSpan[i]}
		}
		e, err := core.NewEngine(w.nets[i], w.peers[i].Addr, core.EngineOptions{})
		if err != nil {
			return fmt.Errorf("engine %s: %w", w.peers[i].Name, err)
		}
		w.engines[i] = e
	}
	if rec != nil {
		w.stopSampler = make(chan struct{})
		w.sampler.Add(1)
		go w.sampleParked()
	}
	return nil
}

// sampleParked polls the engines' park depth: EngineStats has the current
// value only, so the peak has to be watched for.
func (w *muxMixed) sampleParked() {
	defer w.sampler.Done()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-w.stopSampler:
			return
		case <-tick.C:
			for _, e := range w.engines {
				if p := int64(e.Stats().Parked); p > w.parkedPeak.Load() {
					w.parkedPeak.Store(p)
				}
			}
		}
	}
}

func (w *muxMixed) teardown() {
	if w.stopSampler != nil {
		close(w.stopSampler)
		w.sampler.Wait()
		w.stopSampler = nil
	}
	for _, e := range w.engines {
		if e != nil {
			e.Close()
		}
	}
	w.engines, w.bulkPay, w.smallPay = nil, nil, nil
}

func (w *muxMixed) session(kind string, pay *payload, chunk int, class string) *session {
	return &session{
		kind: kind, peers: w.peers, topology: core.TopologyChain,
		opts: benchOptions(chunk, class), pay: pay,
		id: w.ids.next(), fabric: w.fabric, engines: w.engines, nets: w.nets,
	}
}

func (w *muxMixed) bulk(rec *recorder) outcome {
	return w.session("bulk", w.bulkPay, bulkChunk, core.ClassBulk).run(rec)
}

func (w *muxMixed) small(rec *recorder) outcome {
	return w.session("small", w.smallPay, smallChunk, core.ClassInteractive).run(rec)
}

// layer reads the scheduler and admission counters off Engine.Stats. They
// cover the engines' whole life in this run (warm-up and reference phase
// included): ratios of the scheduler's own work, which tracing does not
// change.
func (w *muxMixed) layer(rec *recorder, m map[string]float64) {
	var turns, bytes, queued uint64
	for _, e := range w.engines {
		st := e.Stats()
		queued += st.Queued
		for _, c := range st.Classes {
			turns += c.Turns
			bytes += c.ScheduledBytes
		}
	}
	if turns > 0 {
		m["core.sched_bytes_per_turn"] = float64(bytes) / float64(turns)
		m["core.sched_turns_per_MiB"] = float64(turns) / (float64(bytes) / (1 << 20))
	}
	m["core.admit_queued"] = float64(queued)
	m["core.parked_peak"] = float64(w.parkedPeak.Load())
	now := time.Now()
	for i, id := range w.hostSpan {
		rec.add(id, rec.root, "engine "+w.peers[i].Name, 0, i, rec.rootStart, now)
	}
}
