package chaos

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"kascade/internal/core"
)

// TestRerankDemotionProperty is the seeded property check behind the
// self-reorganization claim: for ANY BFS k-ary tree (random node count and
// arity) with ANY single interior node fed through a collapsed link, the
// re-ranking planner demotes exactly that node out of the interior — it
// ends the run in a leaf slot of the final view — while every node still
// receives the payload bit-perfect and the ring report stays empty (a slow
// node is re-ranked, never declared failed). Shapes and victims derive
// from -chaos.seed, so a failing case prints a replayable seed.
func TestRerankDemotionProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep runs mid-size pipelines")
	}
	rng := rand.New(rand.NewSource(*chaosSeed))
	const cases = 6
	for i := 0; i < cases; i++ {
		n := 6 + rng.Intn(11) // [6, 16]
		k := 2 + rng.Intn(2)  // {2, 3}
		var interiors []int   // non-root slots that have children
		for v := 1; v < n; v++ {
			if k*v+1 < n {
				interiors = append(interiors, v)
			}
		}
		if len(interiors) == 0 {
			continue // k=3 trees shorter than 5 nodes have no interior
		}
		victim := interiors[rng.Intn(len(interiors))]
		parent := (victim - 1) / k
		shape := DefaultShape(n)
		sc := Scenario{
			Name:          fmt.Sprintf("rerank-prop/n=%d/k=%d/victim=%d", n, k, victim),
			Seed:          *chaosSeed,
			Nodes:         n,
			PayloadSize:   shape.PayloadSize,
			ChunkSize:     shape.ChunkSize,
			WindowChunks:  shape.WindowChunks,
			LinkRate:      shape.LinkRate,
			Topology:      core.TopologyTree(k),
			Rerank:        true,
			MinMigrations: 1,
			MaxMigrations: 6,
			Timeout:       20 * time.Second,
			Faults: []Fault{{Kind: RateCollapse, Victim: victim, Peer: parent,
				Delay: 3 * time.Second, Rate: 48 << 10}},
		}
		t.Run(sc.Name, func(t *testing.T) {
			res := Run(context.Background(), sc)
			if err := Check(res); err != nil {
				t.Fatalf("%v\n%s", err, repro(t, sc))
			}
			if len(res.Report.Failures) != 0 {
				t.Fatalf("a throttled node must be re-ranked, not failed: %v\n%s",
					res.Report, repro(t, sc))
			}
			slot := -1
			for s, occ := range res.FinalView {
				if occ == victim {
					slot = s
				}
			}
			if slot < 0 {
				t.Fatalf("victim %d missing from the final view %v\n%s",
					victim, res.FinalView, repro(t, sc))
			}
			if k*slot+1 < n {
				t.Fatalf("victim %d still interior at slot %d of the final view %v (%d migrations)\n%s",
					victim, slot, res.FinalView, res.Migrations, repro(t, sc))
			}
		})
	}
}
