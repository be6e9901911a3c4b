package main

import (
	"kascade/internal/core"
	"kascade/internal/transport"
)

// deepChain: core.RunSession's path on a 16-node chain over an unshaped
// Fabric with dedicated listeners. Fifteen hops of wire decode, window
// append and forward dominate; cmd, control and the kernel do nothing.
type deepChain struct {
	inproc
	cfg       config
	bulkPay   *payload
	smallPay  *payload
	peers     []core.Peer
	ids       sessionIDs // label the spans; dedicated sessions run under core's session 0
	flipSmall bool       // negative test: corrupt one byte in a small broadcast's sink
}

func (w *deepChain) name() string          { return "deep-chain" }
func (w *deepChain) concurrentSmall() bool { return false }
func (w *deepChain) shape() shape {
	return shape{nodes: w.cfg.chainNodes, bulkSize: w.cfg.bulk, smallSize: w.cfg.small, bulkChunk: bulkChunk, smallChunk: smallChunk}
}

func (w *deepChain) setup(*recorder) error {
	w.bulkPay = newPayload(w.cfg.bulk, w.cfg.seed+seedBulk)
	w.smallPay = newPayload(w.cfg.small, w.cfg.seed+seedSmall)
	w.peers = fabricPeers(w.cfg.chainNodes)
	w.ids = sessionIDs{base: w.cfg.seed << 20}
	return nil
}

func (w *deepChain) teardown() { w.bulkPay, w.smallPay = nil, nil }

func (w *deepChain) session(kind string, pay *payload, chunk int) *session {
	return &session{
		kind: kind, peers: w.peers, topology: core.TopologyChain,
		opts: benchOptions(chunk, ""), pay: pay, id: w.ids.next(),
		// A fresh fabric per broadcast, built before the broadcast's
		// clock starts: every listener address is free again.
		fabric: transport.NewFabric(1 << 20),
	}
}

func (w *deepChain) bulk(rec *recorder) outcome {
	return w.session("bulk", w.bulkPay, bulkChunk).run(rec)
}

func (w *deepChain) small(rec *recorder) outcome {
	s := w.session("small", w.smallPay, smallChunk)
	if w.flipSmall {
		s.flipAt = w.cfg.small / 2
	}
	return s.run(rec)
}

func (w *deepChain) layer(*recorder, map[string]float64) {}
