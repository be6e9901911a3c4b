package core

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"testing"

	"kascade/internal/transport"
)

// TestTreeMath pins the BFS k-ary tree arithmetic, including the k = 1
// degeneration to the chain (parent i-1, child {i+1}, depth = index).
func TestTreeMath(t *testing.T) {
	cases := []struct {
		i, k, n  int
		parent   int
		children []int
		depth    int
	}{
		{i: 0, k: 1, n: 4, parent: -1, children: []int{1}, depth: 0},
		{i: 2, k: 1, n: 4, parent: 1, children: []int{3}, depth: 2},
		{i: 3, k: 1, n: 4, parent: 2, children: nil, depth: 3},
		{i: 0, k: 2, n: 7, parent: -1, children: []int{1, 2}, depth: 0},
		{i: 1, k: 2, n: 7, parent: 0, children: []int{3, 4}, depth: 1},
		{i: 2, k: 2, n: 7, parent: 0, children: []int{5, 6}, depth: 1},
		{i: 6, k: 2, n: 7, parent: 2, children: nil, depth: 2},
		{i: 2, k: 2, n: 6, parent: 0, children: []int{5}, depth: 1}, // clipped fan-out
		{i: 15, k: 2, n: 16, parent: 7, children: nil, depth: 4},
		{i: 1, k: 3, n: 13, parent: 0, children: []int{4, 5, 6}, depth: 1},
		{i: 12, k: 3, n: 13, parent: 3, children: nil, depth: 2},
	}
	for _, c := range cases {
		if got := treeParent(c.i, c.k); got != c.parent {
			t.Errorf("treeParent(%d,%d) = %d, want %d", c.i, c.k, got, c.parent)
		}
		got := treeChildren(c.i, c.k, c.n)
		if len(got) != len(c.children) {
			t.Errorf("treeChildren(%d,%d,%d) = %v, want %v", c.i, c.k, c.n, got, c.children)
		} else {
			for j := range got {
				if got[j] != c.children[j] {
					t.Errorf("treeChildren(%d,%d,%d) = %v, want %v", c.i, c.k, c.n, got, c.children)
					break
				}
			}
		}
		if got := treeDepth(c.i, c.k); got != c.depth {
			t.Errorf("treeDepth(%d,%d) = %d, want %d", c.i, c.k, got, c.depth)
		}
		// Consistency: a node is always among its parent's children.
		if c.parent >= 0 {
			found := false
			for _, ch := range treeChildren(c.parent, c.k, c.n) {
				if ch == c.i {
					found = true
				}
			}
			if !found {
				t.Errorf("node %d missing from treeChildren(%d,%d,%d)", c.i, c.parent, c.k, c.n)
			}
		}
	}
}

// TestTreeArity pins the Plan.Topology parser.
func TestTreeArity(t *testing.T) {
	for topo, want := range map[string]int{"": 1, TopologyChain: 1, "tree:1": 1, "tree:2": 2, "tree:16": 16} {
		k, err := TreeArity(topo)
		if err != nil || k != want {
			t.Errorf("TreeArity(%q) = %d, %v, want %d", topo, k, err, want)
		}
	}
	for _, topo := range []string{TopologyScatterAllgather, "tree:0", "tree:-1", "tree:x", "ring", "tree:"} {
		if _, err := TreeArity(topo); err == nil {
			t.Errorf("TreeArity(%q) succeeded, want error", topo)
		}
	}
}

// TestPlanValidateTopology covers the plan-level topology rejections: a
// malformed topology never reaches a node.
func TestPlanValidateTopology(t *testing.T) {
	base := func() *Plan {
		return &Plan{Peers: []Peer{{Name: "a", Addr: "a:1"}, {Name: "b", Addr: "b:1"}}}
	}
	p := base()
	p.Topology = TopologyTree(2)
	if err := p.Validate(); err != nil {
		t.Fatalf("tree plan rejected: %v", err)
	}
	p = base()
	p.Topology = "ring"
	if err := p.Validate(); err == nil {
		t.Fatal("malformed topology accepted")
	}
	// scatter-allgather validates as a plan (callers dispatch it to
	// internal/mpibcast) but a Node must refuse to run it.
	p = base()
	p.Topology = TopologyScatterAllgather
	if err := p.Validate(); err != nil {
		t.Fatalf("scatter-allgather plan rejected: %v", err)
	}
	_, err := NewNode(NodeConfig{Index: 1, Plan: *p, Network: transport.TCP{}, Engine: &Engine{}})
	if err == nil {
		t.Fatal("NewNode ran a composite topology")
	}
}

// runTreeSession runs one n-node tree broadcast over the in-memory fabric
// and verifies bit-perfect delivery at every receiver.
func runTreeSession(t *testing.T, nodes, k, size int) *SessionResult {
	t.Helper()
	fabric := transport.NewFabric(1 << 22)
	peers := make([]Peer, nodes)
	for i := range peers {
		peers[i] = Peer{Name: fmt.Sprintf("n%d", i), Addr: fmt.Sprintf("n%d:7000", i)}
	}
	sinks := make([]*collectSink, nodes)
	for i := 1; i < nodes; i++ {
		sinks[i] = &collectSink{}
	}
	payload := testPayload(size, int64(31*nodes+k))
	res, err := RunSession(context.Background(), SessionConfig{
		Peers:      peers,
		Opts:       Options{ChunkSize: 8 << 10, WindowChunks: 8},
		Topology:   TopologyTree(k),
		NetworkFor: func(i int) transport.Network { return fabric.Host(peers[i].Name) },
		SinkFor: func(i int) io.Writer {
			if sinks[i] == nil {
				return nil
			}
			return sinks[i]
		},
		InputFile: bytes.NewReader(payload),
		InputSize: int64(size),
	})
	if err != nil {
		t.Fatalf("%d-node tree:%d session: %v", nodes, k, err)
	}
	if res.Report.TotalBytes != uint64(size) {
		t.Fatalf("report total %d, want %d", res.Report.TotalBytes, size)
	}
	if len(res.Report.Failures) != 0 {
		t.Fatalf("failure-free run reported failures: %+v", res.Report.Failures)
	}
	for i := 1; i < nodes; i++ {
		if !bytes.Equal(sinks[i].Bytes(), payload) {
			t.Fatalf("node %d payload mismatch (%d of %d bytes)", i, len(sinks[i].Bytes()), size)
		}
	}
	return res
}

// TestTreeSessionBitPerfect is the tentpole acceptance case: a 16-node
// binary tree delivers bit-perfect with a maximum hop depth of 4 (versus 15
// on the chain).
func TestTreeSessionBitPerfect(t *testing.T) {
	const nodes, k = 16, 2
	maxDepth := 0
	for i := 0; i < nodes; i++ {
		if d := treeDepth(i, k); d > maxDepth {
			maxDepth = d
		}
	}
	if maxDepth != 4 {
		t.Fatalf("max hop depth of a %d-node %d-ary tree = %d, want 4", nodes, k, maxDepth)
	}
	runTreeSession(t, nodes, k, 256<<10)
}

// TestTreeSessionShapes sweeps small shapes, including arity larger than
// the node count (a flat star) and a 1-ary tree (the chain expressed as a
// tree, exercising the same worker machinery with a single child).
func TestTreeSessionShapes(t *testing.T) {
	for _, c := range []struct{ nodes, k int }{{3, 2}, {7, 2}, {7, 3}, {5, 8}, {4, 1}, {1, 2}, {2, 2}} {
		c := c
		t.Run(fmt.Sprintf("n%d_k%d", c.nodes, c.k), func(t *testing.T) {
			t.Parallel()
			runTreeSession(t, c.nodes, c.k, 96<<10)
		})
	}
}
