package chaos

import (
	"fmt"
	"strings"
)

// Check asserts the paper's recovery invariants over one Result:
//
//  1. the sender completed inside the scenario's time budget (bounded
//     recovery: a hung pipeline is the worst failure mode);
//  2. no sink ever diverged from the source prefix — bit-perfect bytes,
//     even on nodes that later died;
//  3. every survivor (not reported failed, not abandoned, no terminal
//     error) holds the complete payload;
//  4. victim naming is correct: the ring report only names nodes that were
//     actually faulted, abandoned, or died — a healthy node must never be
//     reported;
//  5. every permanently crashed victim is accounted for: named in the ring
//     report unless it finished its copy before the crash landed;
//  6. each detected failure was detected within DetectBudget;
//  7. re-ranking is bounded: on a Rerank scenario the executed migration
//     count stays within [MinMigrations, MaxMigrations] (the floor proves
//     the slow link actually provoked a re-ranking, the ceiling proves
//     hysteresis prevented thrash), and a non-Rerank run never migrates.
//
// It returns nil when every invariant holds, or an error listing every
// violation.
func Check(res *Result) error {
	var bad []string
	fail := func(format string, args ...any) {
		bad = append(bad, fmt.Sprintf(format, args...))
	}

	if res.Err != "" {
		fail("harness: %s", res.Err)
	}
	if res.Report == nil {
		fail("no ring report reached the sender")
		return fmt.Errorf("chaos: %s", strings.Join(bad, "; "))
	}

	victims := map[int]bool{}
	for _, v := range res.Scenario.victims() {
		victims[v] = true
	}
	// Reorg-sentinel faults name a role, not an index; the runner records
	// the resolved victim in the injection log, so fold those in too.
	for _, inj := range res.Injections {
		if inj.Fault.Victim >= 0 {
			victims[inj.Fault.Victim] = true
		}
	}

	for _, out := range res.Outcomes {
		if out.Index == 0 {
			continue
		}
		if out.Corrupt {
			fail("node %d sink diverged from the source prefix", out.Index)
		}
		reported := res.Report.Failed(out.Index)
		survivor := !reported && !out.Abandoned && out.Err == ""
		if survivor && !out.Complete {
			fail("survivor node %d incomplete: %d of %d bytes",
				out.Index, out.ReceivedBytes, res.Scenario.PayloadSize)
		}
		if reported && !victims[out.Index] && !out.Abandoned && out.Err == "" {
			fail("healthy node %d named in the ring report", out.Index)
		}
	}

	for _, inj := range res.Injections {
		if inj.Fault.Victim >= len(res.Outcomes) {
			continue // a crashed late joiner; the join invariants cover it
		}
		if inj.Fault.Kind == Crash {
			out := res.Outcomes[inj.Fault.Victim]
			if !res.Report.Failed(inj.Fault.Victim) && !out.Complete {
				fail("crashed node %d neither reported nor complete", inj.Fault.Victim)
			}
		}
	}

	if sc := res.Scenario; sc.Rerank {
		if res.Migrations < sc.MinMigrations {
			fail("only %d migration(s) executed, scenario demands >= %d",
				res.Migrations, sc.MinMigrations)
		}
		if sc.MaxMigrations > 0 && res.Migrations > sc.MaxMigrations {
			fail("%d migrations executed, hysteresis bound is %d",
				res.Migrations, sc.MaxMigrations)
		}
	} else if res.Migrations > 0 {
		fail("%d migration(s) executed without Rerank enabled", res.Migrations)
	}

	// Dynamic membership (Scenario.Joins): every scheduled join either
	// grafted or was refused with a typed reason; a grafted joiner's sink
	// never diverges, reaches the full payload unless the schedule
	// crashed it, and stays out of the ring report when healthy; a
	// crashed joiner is named in the report unless it finished first
	// (the Crash invariant, under the joiner's granted index); and at
	// least MinGrafted joins actually landed.
	grafted := 0
	for i, j := range res.Joins {
		if j.Corrupt {
			fail("joiner %d sink diverged from the source prefix", i)
		}
		if !j.Grafted {
			if j.RefuseReason == "" {
				fail("join %d neither grafted nor refused", i)
			}
			continue
		}
		grafted++
		if j.Crashed {
			if !res.Report.Failed(j.Index) && !j.Complete {
				fail("crashed joiner (node %d) neither reported nor complete", j.Index)
			}
			continue
		}
		if j.Err != "" {
			fail("joiner (node %d) failed: %s", j.Index, j.Err)
		}
		if !j.Complete {
			fail("joiner (node %d) incomplete: %d of %d bytes",
				j.Index, j.ReceivedBytes, res.Scenario.PayloadSize)
		}
		if res.Report.Failed(j.Index) {
			fail("healthy joiner (node %d) named in the ring report", j.Index)
		}
	}
	if grafted < res.Scenario.MinGrafted {
		var refusals []string
		for _, j := range res.Joins {
			if !j.Grafted && j.RefuseReason != "" {
				refusals = append(refusals, j.RefuseReason)
			}
		}
		fail("only %d of %d scheduled joins grafted, scenario demands >= %d (refusals: %s)",
			grafted, len(res.Joins), res.Scenario.MinGrafted, strings.Join(refusals, "; "))
	}

	for _, rec := range res.Recoveries {
		if rec.Detected && rec.DetectLatency > DetectBudget {
			fail("failure of node %d took %v to detect (budget %v)",
				rec.Victim, rec.DetectLatency, DetectBudget)
		}
	}

	// Cross-session isolation (Sessions > 1): the sibling sessions sharing
	// the faulted session's engines must be completely undisturbed —
	// failure-free, bit-perfect, and no slower than the healthy baseline
	// phase within a generous noise bound.
	if sib := res.Sibling; sib != nil {
		if sib.Failures > 0 {
			fail("sibling sessions reported %d failure(s)", sib.Failures)
		}
		if sib.Corrupt {
			fail("a sibling session's sink diverged from its source prefix")
		}
		if !sib.Complete {
			fail("a sibling session did not deliver its full payload")
		}
		if limit := sib.BaselineMs*siblingLatencyFactor + siblingLatencySlackMs; sib.ElapsedMs > limit {
			fail("sibling latency disturbed: %.0f ms vs %.0f ms baseline (limit %.0f ms)",
				sib.ElapsedMs, sib.BaselineMs, limit)
		}
	}

	if len(bad) == 0 {
		return nil
	}
	return fmt.Errorf("chaos: %s", strings.Join(bad, "; "))
}

// siblingLatencyFactor and siblingLatencySlackMs bound how much slower the
// slowest sibling session may run in the faulted phase versus the healthy
// baseline. The bound catches systemic disturbance (a wedged shared
// engine, a poisoned park queue, budget starvation) while absorbing
// scheduler noise on loaded CI runners — note the faulted session usually
// LIGHTENS the load mid-run, so a healthy engine sits far below it.
const (
	siblingLatencyFactor  = 3.0
	siblingLatencySlackMs = 1000.0
)
