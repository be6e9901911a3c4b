package main

import (
	"math/rand"

	"kascade/internal/core"
	"kascade/internal/transport"
)

// crashVictim is the interior node every tree-crash broadcast loses: in a
// binary tree node 2 feeds nodes 5 and 6, which must re-graft onto node 0.
const crashVictim = 2

// treeCrash: core.StartSession on a 16-node binary tree with a seeded
// Fabric.Kill of an interior node mid-transfer. The tree manager (which
// bypasses the scheduler) and §III-D recovery — window replay reads beside
// live appends, children re-grafting — do work no other workload touches.
type treeCrash struct {
	inproc
	cfg        config
	bulkPay    *payload
	smallPay   *payload
	peers      []core.Peer
	ids        sessionIDs // label the spans; dedicated sessions run under core's session 0
	offsets    *rand.Rand // the seeded crash offsets, one per bulk broadcast
	hideVictim bool       // negative test: check a report that omits the victim
}

func (w *treeCrash) name() string          { return "tree-crash" }
func (w *treeCrash) concurrentSmall() bool { return false }
func (w *treeCrash) shape() shape {
	return shape{nodes: w.cfg.chainNodes, bulkSize: w.cfg.bulk, smallSize: w.cfg.small, bulkChunk: bulkChunk, smallChunk: smallChunk}
}

func (w *treeCrash) setup(*recorder) error {
	w.bulkPay = newPayload(w.cfg.bulk, w.cfg.seed+seedBulk)
	w.smallPay = newPayload(w.cfg.small, w.cfg.seed+seedSmall)
	w.peers = fabricPeers(w.cfg.chainNodes)
	w.ids = sessionIDs{base: w.cfg.seed << 20}
	w.offsets = rand.New(rand.NewSource(int64(w.cfg.seed)))
	return nil
}

func (w *treeCrash) teardown() { w.bulkPay, w.smallPay = nil, nil }

// bulk kills the victim's host from the victim's own sink when its ingest
// crosses a seeded offset in [40%, 60%] of the payload. The sink is the
// trigger in the traced run too, so both runs crash the same way and the
// untraced one needs no Trace hook.
func (w *treeCrash) bulk(rec *recorder) outcome {
	s := &session{
		kind: "bulk", peers: w.peers, topology: core.TopologyTree(2),
		opts: benchOptions(bulkChunk, ""), pay: w.bulkPay, id: w.ids.next(),
		fabric: transport.NewFabric(1 << 20),
		victim: crashVictim, hideVictim: w.hideVictim,
	}
	s.killAt = int64((0.4 + 0.2*w.offsets.Float64()) * float64(w.cfg.bulk))
	return s.run(rec)
}

// small is a healthy 1 MiB broadcast through the same tree: what the tree
// manager's set-up and completion wave cost when nothing fails.
func (w *treeCrash) small(rec *recorder) outcome {
	s := &session{
		kind: "small", peers: w.peers, topology: core.TopologyTree(2),
		opts: benchOptions(smallChunk, ""), pay: w.smallPay, id: w.ids.next(),
		fabric: transport.NewFabric(1 << 20),
	}
	return s.run(rec)
}

func (w *treeCrash) layer(*recorder, map[string]float64) {}
