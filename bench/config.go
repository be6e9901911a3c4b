package main

import (
	"fmt"
	"strings"
)

var workloadNames = []string{"proc-chain", "deep-chain", "mux-mixed", "tree-crash"}

func newWorkload(name string, cfg config) (workload, error) {
	switch name {
	case "proc-chain":
		return &procChain{cfg: cfg}, nil
	case "deep-chain":
		return &deepChain{cfg: cfg}, nil
	case "mux-mixed":
		return &muxMixed{cfg: cfg}, nil
	case "tree-crash":
		return &treeCrash{cfg: cfg}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// config sizes the workloads. The defaults are the benchmark; the smoke
// test shrinks them.
type config struct {
	seed    uint64
	tmp     string // scratch directory (proc-chain's agent working directories)
	kascade string // the kascade binary proc-chain spawns

	chainNodes int   // deep-chain and tree-crash pipeline length
	bulk       int64 // deep-chain and tree-crash payload
	muxBulk    int64 // mux-mixed bulk-class payload
	procBulk   int64 // proc-chain payload
	small      int64 // every workload's small broadcast
}

func defaultConfig() config {
	return config{chainNodes: 16, bulk: 256 << 20, muxBulk: 512 << 20, procBulk: 256 << 20, small: 1 << 20}
}

// shape is what the harness needs to turn a workload's counts into rates.
type shape struct {
	nodes                 int
	bulkSize, smallSize   int64
	bulkChunk, smallChunk int
}

// In-process chunk sizes: bulk broadcasts move 256 KiB chunks, small ones
// 64 KiB (a 1 MiB payload in 1 MiB chunks would never pipeline).
const (
	bulkChunk  = 256 << 10
	smallChunk = 64 << 10
)

// Seed offsets keep each payload's bytes distinct within a run.
const (
	seedBulk  = 0x62756c6b
	seedSmall = 0x736d616c
)
