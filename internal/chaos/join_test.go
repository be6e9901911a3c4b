package chaos

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"kascade/internal/core"
)

// joinShape is the default shape slowed enough that join marks land well
// inside the transfer.
func joinShape(nodes int) Shape {
	s := DefaultShape(nodes)
	s.LinkRate = 1 << 20
	return s
}

// TestJoinWaveDirect drives the dynamic-membership harness directly: two
// joiners grafted mid-broadcast must both complete bit-perfect, under
// fresh pipeline indices, without being named in the ring report.
func TestJoinWaveDirect(t *testing.T) {
	shape := joinShape(7)
	sc := Scenario{
		Name:         "join-wave-direct",
		Nodes:        shape.Nodes,
		PayloadSize:  shape.PayloadSize,
		ChunkSize:    shape.ChunkSize,
		WindowChunks: shape.WindowChunks,
		LinkRate:     shape.LinkRate,
		Topology:     core.TopologyTree(2),
		Rerank:       true,
		Timeout:      20 * time.Second,
		Joins: []JoinSpec{
			{When: Mark{Node: 1, Bytes: uint64(shape.PayloadSize / 8)}},
			{When: Mark{Node: 2, Bytes: uint64(shape.PayloadSize / 4)}},
		},
		MinGrafted: 2,
	}
	res := Run(context.Background(), sc)
	if err := Check(res); err != nil {
		t.Fatalf("%v\n%s", err, repro(t, sc))
	}
	if len(res.Joins) != 2 {
		t.Fatalf("want 2 join outcomes, got %+v", res.Joins)
	}
	seen := map[int]bool{}
	for i, j := range res.Joins {
		if !j.Grafted || !j.Complete || j.Corrupt {
			t.Fatalf("join %d not clean: %+v", i, j)
		}
		if j.Index < sc.Nodes {
			t.Fatalf("join %d granted base index %d, want >= %d", i, j.Index, sc.Nodes)
		}
		if seen[j.Index] {
			t.Fatalf("two joiners share index %d", j.Index)
		}
		seen[j.Index] = true
	}
}

// TestJoinCrashMidCatchUp: a joiner killed while it is still catching up
// must be detected and named in the ring report under its granted index —
// the victim-naming invariant extended to dynamic members.
func TestJoinCrashMidCatchUp(t *testing.T) {
	shape := joinShape(7)
	sc := Scenario{
		Name:         "join-crash-direct",
		Nodes:        shape.Nodes,
		PayloadSize:  shape.PayloadSize,
		ChunkSize:    shape.ChunkSize,
		WindowChunks: shape.WindowChunks,
		LinkRate:     shape.LinkRate,
		Topology:     core.TopologyTree(2),
		Rerank:       true,
		Timeout:      20 * time.Second,
		Joins: []JoinSpec{{
			When:    Mark{Node: 1, Bytes: uint64(shape.PayloadSize / 8)},
			CrashAt: uint64(shape.PayloadSize / 2),
		}},
		MinGrafted: 1,
	}
	res := Run(context.Background(), sc)
	if err := Check(res); err != nil {
		t.Fatalf("%v\n%s", err, repro(t, sc))
	}
	j := res.Joins[0]
	if !j.Grafted {
		t.Fatalf("join never grafted: %+v", j)
	}
	if !j.Crashed {
		t.Fatalf("scheduled joiner crash never fired: %+v", j)
	}
	// The crash was recorded as an injection under the granted index.
	found := false
	for _, inj := range res.Injections {
		if inj.Fault.Kind == Crash && inj.Fault.Victim == j.Index {
			found = true
		}
	}
	if !found {
		t.Fatalf("joiner crash not in the injection log: %+v", res.Injections)
	}
}

// TestGenerateJoinsIsDeterministic pins the reproduction contract for the
// join generator, mirroring TestGenerateIsDeterministic.
func TestGenerateJoinsIsDeterministic(t *testing.T) {
	a := GenerateJoins(4321, joinShape(7))
	b := GenerateJoins(4321, joinShape(7))
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different join schedules:\n%s\nvs\n%s", a.Schedule(), b.Schedule())
	}
	c := GenerateJoins(4322, joinShape(7))
	if reflect.DeepEqual(a.Joins, c.Joins) {
		t.Fatal("different seeds produced identical join schedules")
	}
	if !a.Rerank || a.Topology == "" {
		t.Fatalf("generated join scenario lacks the rerank-tree preconditions: %+v", a)
	}
	if len(a.Joins) < 1 || len(a.Joins) > 3 {
		t.Fatalf("generated %d joins, want 1..3", len(a.Joins))
	}
}

// TestJoinScheduleProperty sweeps random join schedules against random
// tree shapes, all derived from the pinned -chaos.seed: whatever the
// schedule, every graft ends bit-perfect or correctly named, and every
// non-graft is a typed refusal.
func TestJoinScheduleProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep skipped in -short")
	}
	rng := rand.New(rand.NewSource(*chaosSeed * 7919))
	for i := 0; i < 4; i++ {
		n := 5 + rng.Intn(8) // 5..12 nodes, arity drawn inside the generator
		seed := rng.Int63()
		sc := GenerateJoins(seed, joinShape(n))
		t.Run(sc.Name, func(t *testing.T) {
			res := Run(context.Background(), sc)
			if err := Check(res); err != nil {
				t.Fatalf("%v\nreproduce with -chaos.seed=%d\nschedule:\n%s",
					err, *chaosSeed, sc.Schedule())
			}
		})
	}
}
