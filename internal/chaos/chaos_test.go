package chaos

import (
	"context"
	"flag"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// chaosSeed pins the generated part of the scenario matrix; a failing
// scenario prints the exact command (including this seed) that replays it.
var chaosSeed = flag.Int64("chaos.seed", 1, "seed for generated chaos schedules")

// TestChaosMatrix sweeps the full shrunk scenario matrix: every fault kind
// × node counts {3,7,16} plus compound clusters and seeded random
// schedules, asserting bit-perfect delivery, correct victim naming and
// bounded recovery on each.
func TestChaosMatrix(t *testing.T) {
	scenarios := Matrix(*chaosSeed, false)
	if len(scenarios) < 20 {
		t.Fatalf("matrix has %d scenario clusters, want >= 20", len(scenarios))
	}
	for _, sc := range scenarios {
		sc := sc
		if testing.Short() && sc.Nodes > 3 {
			continue
		}
		t.Run(sc.Name, func(t *testing.T) {
			res := Run(context.Background(), sc)
			if err := Check(res); err != nil {
				t.Fatalf("%v\n%s", err, sc.Repro(*chaosSeed))
			}
		})
	}
}

// TestGenerateIsDeterministic pins the reproduction contract: the same
// seed and shape must produce byte-identical schedules.
func TestGenerateIsDeterministic(t *testing.T) {
	a := Generate(1234, DefaultShape(7))
	b := Generate(1234, DefaultShape(7))
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different schedules:\n%s\nvs\n%s", a.Schedule(), b.Schedule())
	}
	c := Generate(1235, DefaultShape(7))
	if reflect.DeepEqual(a.Faults, c.Faults) {
		t.Fatal("different seeds produced identical schedules (generator ignores the seed?)")
	}
	for _, f := range a.Faults {
		if f.Victim <= 0 || f.Victim >= 7 {
			t.Fatalf("generated fault targets node %d of a 7-node pipeline", f.Victim)
		}
	}
}

// TestGenerateVictimsDistinct: a generated schedule never targets the same
// victim twice (each slot fails one way per run).
func TestGenerateVictimsDistinct(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		sc := Generate(seed, DefaultShape(7))
		seen := map[int]bool{}
		for _, f := range sc.Faults {
			if seen[f.Victim] {
				t.Fatalf("seed %d targets node %d twice:\n%s", seed, f.Victim, sc.Schedule())
			}
			seen[f.Victim] = true
		}
	}
}

// TestHealthyScenarioBaseline: no faults means no failures, every node
// complete — the engine itself must not perturb a clean run.
func TestHealthyScenarioBaseline(t *testing.T) {
	sc := Scenario{
		Name:         "baseline",
		Nodes:        5,
		PayloadSize:  128 << 10,
		ChunkSize:    8 << 10,
		WindowChunks: 8,
		LinkRate:     8 << 20,
		Timeout:      20 * time.Second,
	}
	res := Run(context.Background(), sc)
	if err := Check(res); err != nil {
		t.Fatal(err)
	}
	if len(res.Report.Failures) != 0 {
		t.Fatalf("clean run reported failures: %v", res.Report)
	}
	for _, out := range res.Outcomes[1:] {
		if !out.Complete {
			t.Fatalf("node %d incomplete in a clean run: %+v", out.Index, out)
		}
	}
}

// TestCrashRecoveryLatencyMeasured: a mid-pipeline crash must yield a
// detection and a resume measurement, both within budget.
func TestCrashRecoveryLatencyMeasured(t *testing.T) {
	sc := Scenario{
		Name:         "crash-latency",
		Nodes:        5,
		PayloadSize:  256 << 10,
		ChunkSize:    8 << 10,
		WindowChunks: 8,
		LinkRate:     2 << 20,
		Timeout:      20 * time.Second,
		Faults: []Fault{{
			Kind: Crash, Victim: 2, Peer: -1,
			When: Mark{Node: 2, Bytes: 64 << 10},
		}},
	}
	res := Run(context.Background(), sc)
	if err := Check(res); err != nil {
		t.Fatal(err)
	}
	if len(res.Injections) != 1 {
		t.Fatalf("fault did not fire: %+v", res.Injections)
	}
	if len(res.Recoveries) != 1 {
		t.Fatalf("want one recovery record, got %+v", res.Recoveries)
	}
	rec := res.Recoveries[0]
	if !rec.Detected {
		t.Fatal("crash was never detected")
	}
	if rec.DetectLatency <= 0 || rec.DetectLatency > DetectBudget {
		t.Fatalf("detect latency %v out of (0, %v]", rec.DetectLatency, DetectBudget)
	}
	if !rec.Resumed {
		t.Fatal("pipeline never resumed past the victim")
	}
	if !res.Report.Failed(2) {
		t.Fatalf("report must name the victim: %v", res.Report)
	}
	if reason := failureReason(res, 2); !strings.Contains(reason, "dead") && !strings.Contains(reason, "failed") && !strings.Contains(reason, "reconnect") {
		t.Logf("victim reason: %q", reason) // informative, not asserted
	}
}

func failureReason(res *Result, idx int) string {
	for _, f := range res.Report.Failures {
		if f.Index == idx {
			return f.Reason
		}
	}
	return ""
}

// TestCrossSessionIsolation drives the cross-session harness directly: the
// sink-crash must actually fire (injection recorded, victim named in the
// faulted session's report) and the sibling outcome must show clean,
// complete delivery over the shared engines.
func TestCrossSessionIsolation(t *testing.T) {
	sc := Scenario{
		Name:         "cross-session-direct",
		Nodes:        4,
		Sessions:     3,
		PayloadSize:  256 << 10,
		ChunkSize:    8 << 10,
		WindowChunks: 8,
		LinkRate:     4 << 20,
		Timeout:      20 * time.Second,
		Faults: []Fault{{
			Kind: SinkCrash, Victim: 2, Peer: -1,
			When: Mark{Node: 2, Bytes: 96 << 10},
		}},
	}
	res := Run(context.Background(), sc)
	if err := Check(res); err != nil {
		t.Fatal(err)
	}
	if len(res.Injections) != 1 {
		t.Fatalf("sink crash never fired: %+v", res.Injections)
	}
	if !res.Report.Failed(2) {
		t.Fatalf("faulted session's report does not name the victim: %v", res.Report)
	}
	if !res.Outcomes[2].Abandoned {
		t.Fatalf("victim outcome not abandoned: %+v", res.Outcomes[2])
	}
	sib := res.Sibling
	if sib == nil || sib.Sessions != 2 {
		t.Fatalf("sibling outcome missing: %+v", sib)
	}
	if sib.Failures != 0 || sib.Corrupt || !sib.Complete {
		t.Fatalf("siblings disturbed: %+v", sib)
	}
	if sib.BaselineMs <= 0 || sib.ElapsedMs <= 0 {
		t.Fatalf("latency measurements missing: %+v", sib)
	}
}

// TestByteMarkFires: a byte-offset trigger on a mid-transfer mark must
// actually inject (the fault fires on the chunk boundary crossing the
// mark), and a short healed write-stall must leave the broadcast clean.
func TestByteMarkFires(t *testing.T) {
	sc := Scenario{
		Name:         "mark-precision",
		Nodes:        3,
		PayloadSize:  256 << 10,
		ChunkSize:    8 << 10,
		WindowChunks: 8,
		LinkRate:     4 << 20,
		Timeout:      20 * time.Second,
		Faults: []Fault{{
			Kind: WriteStall, Victim: 1, Peer: -1,
			When:  Mark{Node: 1, Bytes: 96 << 10},
			Delay: 100 * time.Millisecond,
		}},
	}
	res := Run(context.Background(), sc)
	if err := Check(res); err != nil {
		t.Fatal(err)
	}
	if len(res.Injections) != 1 {
		t.Fatalf("byte-mark fault never fired: %+v", res.Injections)
	}
	if got := res.Injections[0].Fault.When.Bytes; got != 96<<10 {
		t.Fatalf("wrong fault fired: mark %d", got)
	}
}

// TestTrackRefusedOnceSettled: restarts and joins that fault timers fire
// while the run settles are either counted before the wait begins or
// refused, so the WaitGroups never see an Add race their Wait (run under
// -race) and nothing is counted once the wait has begun.
func TestTrackRefusedOnceSettled(t *testing.T) {
	var r runner
	var timers sync.WaitGroup
	for i := 0; i < 8; i++ {
		timers.Add(1)
		go func() {
			defer timers.Done()
			if r.track(&r.rebornWG) {
				r.rebornWG.Done()
			}
		}()
	}
	r.settle()
	r.rebornWG.Wait()
	if r.track(&r.joinWG) {
		t.Fatal("a join was counted after the run settled")
	}
	timers.Wait()
}
