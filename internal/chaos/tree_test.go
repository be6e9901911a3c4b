package chaos

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"kascade/internal/core"
)

// TestTreeCrashProperty is the seeded property check behind the tree
// recovery claim: for ANY BFS k-ary tree plan (random node count and
// arity) and ANY single non-root crash victim, every survivor receives
// the payload bit-perfect and the ring report names exactly the victim —
// whether the victim was a root child, an interior node whose children
// must re-graft onto their grandparent, or a leaf. Shapes and victims
// derive from -chaos.seed, so a failing case prints a replayable seed.
func TestTreeCrashProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep runs mid-size pipelines")
	}
	rng := rand.New(rand.NewSource(*chaosSeed))
	const cases = 10
	for i := 0; i < cases; i++ {
		n := 3 + rng.Intn(14)       // [3, 16]
		k := 2 + rng.Intn(3)        // [2, 4]
		victim := 1 + rng.Intn(n-1) // any non-root node
		shape := DefaultShape(n)
		sc := Scenario{
			Name:         fmt.Sprintf("tree-prop/n=%d/k=%d/victim=%d", n, k, victim),
			Seed:         *chaosSeed,
			Nodes:        n,
			PayloadSize:  shape.PayloadSize,
			ChunkSize:    shape.ChunkSize,
			WindowChunks: shape.WindowChunks,
			LinkRate:     shape.LinkRate,
			Topology:     core.TopologyTree(k),
			Timeout:      20 * time.Second,
			Faults: []Fault{{
				Kind: Crash, Victim: victim, Peer: -1,
				When: Mark{Node: victim, Bytes: uint64(shape.PayloadSize / 4)},
			}},
		}
		t.Run(sc.Name, func(t *testing.T) {
			res := Run(context.Background(), sc)
			if err := Check(res); err != nil {
				t.Fatalf("%v\n%s", err, sc.Repro(*chaosSeed))
			}
			if !res.Report.Failed(victim) {
				t.Fatalf("report does not name the victim %d: %v\n%s", victim, res.Report, sc.Repro(*chaosSeed))
			}
			for _, out := range res.Outcomes {
				if out.Index == 0 || out.Index == victim {
					continue
				}
				if !out.Complete {
					t.Fatalf("survivor %d incomplete: %+v\n%s", out.Index, out, sc.Repro(*chaosSeed))
				}
			}
		})
	}
}
