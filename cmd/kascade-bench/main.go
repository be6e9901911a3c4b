// Command kascade-bench regenerates the paper's evaluation tables (§IV,
// Figures 7-15) and the design-choice ablations on the simulator, and
// benchmarks the real protocol engine.
//
//	kascade-bench -list                 # show available experiments
//	kascade-bench -run fig7             # regenerate one figure
//	kascade-bench -run all -scale 1     # everything at paper file sizes
//	kascade-bench -run fig15 -reps 10   # tighter confidence intervals
//	kascade-bench -engine -json BENCH_1.json   # engine microbenchmarks
//	kascade-bench -chaos -seed 1 -json CHAOS_1.json   # recovery benchmarks
//
// Absolute throughputs come from a calibrated simulator (see DESIGN.md §2);
// the shapes — who wins, by what factor, where the crossovers are — are the
// reproduction targets, recorded against the paper in EXPERIMENTS.md. The
// -engine mode instead runs real broadcasts over the in-memory fabric
// (the same harness as `go test -bench Engine`) and writes a
// machine-readable JSON file so successive PRs can track the hot-path
// trajectory. The -chaos mode runs the full fault-injection scenario
// matrix (internal/chaos) at bench-sized payloads and records the
// recovery-latency distributions next to the delivery verdicts.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"
	"time"

	"kascade/internal/benchkit"
	"kascade/internal/chaos"
	"kascade/internal/core"
	"kascade/internal/experiments"
)

// engineResult is one row of the machine-readable engine benchmark file.
type engineResult struct {
	MBPerSec    float64 `json:"mb_per_s"`
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
}

// runEngineBench benchmarks the real engine over the fabric and writes
// name → metrics JSON to path. The matrix comes from benchkit, the same
// table `go test -bench Engine` iterates.
func runEngineBench(path string) error {
	specs := benchkit.EngineBenchmarks()
	out := make(map[string]engineResult, len(specs))
	for _, spec := range specs {
		spec := spec
		var broadcastErr error
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(spec.Size)
			for i := 0; i < b.N; i++ {
				if _, err := spec.Broadcast(); err != nil {
					broadcastErr = err
					b.Fatal(err)
				}
			}
		})
		// testing.Benchmark swallows b.Fatal into a zero result; surface
		// it instead of writing zeroed rows with a success exit code.
		if broadcastErr != nil {
			return fmt.Errorf("%s: %w", spec.Name, broadcastErr)
		}
		if r.N == 0 || r.NsPerOp() <= 0 {
			return fmt.Errorf("%s: benchmark produced no measurements", spec.Name)
		}
		res := engineResult{
			MBPerSec:    float64(spec.Size) / 1e6 / (float64(r.NsPerOp()) / 1e9),
			NsPerOp:     r.NsPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			Iterations:  r.N,
		}
		out[spec.Name] = res
		fmt.Printf("%-32s %8.2f MB/s %10d ns/op %8d allocs/op\n",
			spec.Name, res.MBPerSec, res.NsPerOp, res.AllocsPerOp)
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// muxRow is one row of the session-multiplexing benchmark: aggregate and
// per-session throughput with S overlapping broadcasts sharing one engine
// (single data listener) per pipeline host, broken down by priority class.
type muxRow struct {
	Sessions          int                      `json:"sessions"`
	Label             string                   `json:"label,omitempty"` // variant tag, e.g. "mixed" (class mix)
	Nodes             int                      `json:"nodes"`
	PayloadBytes      int64                    `json:"payload_bytes"`
	ElapsedMs         float64                  `json:"elapsed_ms"`
	AggregateMBPerSec float64                  `json:"aggregate_mb_per_s"`
	MeanSessionMBPerS float64                  `json:"mean_session_mb_per_s"`
	MinSessionMBPerS  float64                  `json:"min_session_mb_per_s"`
	PerClass          map[string]muxClassStats `json:"per_class,omitempty"`
}

// muxClassStats summarises the sessions of one priority class in a mux
// row; min/mean is the within-class fairness ratio the CI gate checks.
type muxClassStats struct {
	Sessions   int     `json:"sessions"`
	MeanMBPerS float64 `json:"mean_mb_per_s"`
	MinMBPerS  float64 `json:"min_mb_per_s"`
}

// key names the row in compare tables: variant rows carry their label.
func (r muxRow) key() string {
	if r.Label != "" {
		return fmt.Sprintf("mux/sessions=%d/%s", r.Sessions, r.Label)
	}
	return fmt.Sprintf("mux/sessions=%d", r.Sessions)
}

// muxBenchNodes/muxBenchChunk fix the pipeline shape of the mux sweep so
// rows across PRs stay comparable (depth matches the chunk-size sweep).
const (
	muxBenchNodes = 5
	muxBenchChunk = 256 << 10
)

// muxBenchReps is how many times each session count runs; the best round
// is recorded (minimum-time discipline — truly simultaneous sessions on a
// loaded builder schedule noisily).
const muxBenchReps = 3

// muxSpec is one point of the mux sweep: a session count, and optionally a
// class mix (nil = all bulk).
type muxSpec struct {
	sessions int
	label    string
	classFor func(s int) string
}

// muxSweep is the benchmark matrix: the uniform-class concurrency sweep,
// plus a mixed bulk/interactive run at the highest concurrency that
// exercises the weighted scheduler's cross-class split (within-class
// fairness must still hold; across classes the interactive sessions earn
// their weight).
func muxSweep() []muxSpec {
	specs := make([]muxSpec, 0, len(benchkit.MuxSessionCounts)+1)
	for _, sessions := range benchkit.MuxSessionCounts {
		specs = append(specs, muxSpec{sessions: sessions})
	}
	top := benchkit.MuxSessionCounts[len(benchkit.MuxSessionCounts)-1]
	specs = append(specs, muxSpec{
		sessions: top,
		label:    "mixed",
		classFor: func(s int) string {
			if s%2 == 1 {
				return core.ClassInteractive
			}
			return core.ClassBulk
		},
	})
	return specs
}

// muxClassOf mirrors a spec's class assignment for reporting.
func (sp muxSpec) classOf(s int) string {
	if sp.classFor == nil {
		return core.ClassBulk
	}
	return sp.classFor(s)
}

// runMuxBench sweeps muxSweep through shared per-host engines and writes
// the aggregate/per-session/per-class throughput table to path.
func runMuxBench(path string) error {
	specs := muxSweep()
	rows := make([]muxRow, 0, len(specs))
	size := int64(benchkit.EngineBenchSize)
	for _, sp := range specs {
		var best muxRow
		got := 0
		var lastErr error
		for rep := 0; rep < muxBenchReps; rep++ {
			results, elapsed, err := benchkit.MuxBroadcastClasses(sp.sessions, muxBenchNodes, size, muxBenchChunk, sp.classFor)
			if err != nil {
				// A rep can fail spuriously on an oversubscribed builder
				// (scheduler starvation tripping a failure detector); the
				// best-of discipline tolerates it, and only an all-reps
				// failure fails the artifact.
				lastErr = err
				fmt.Fprintf(os.Stderr, "mux sessions=%d%s rep %d/%d failed (discarded): %v\n", sp.sessions, sp.label, rep+1, muxBenchReps, err)
				continue
			}
			row := muxRow{
				Sessions:          sp.sessions,
				Label:             sp.label,
				Nodes:             muxBenchNodes,
				PayloadBytes:      size,
				ElapsedMs:         float64(elapsed) / 1e6,
				AggregateMBPerSec: float64(sp.sessions) * float64(size) / 1e6 / elapsed.Seconds(),
				PerClass:          make(map[string]muxClassStats),
			}
			min := 0.0
			for i, r := range results {
				mbps := r.Throughput() / 1e6
				row.MeanSessionMBPerS += mbps / float64(sp.sessions)
				if i == 0 || mbps < min {
					min = mbps
				}
				class := sp.classOf(i)
				cs := row.PerClass[class]
				cs.Sessions++
				cs.MeanMBPerS += mbps // sum for now; divided below
				if cs.Sessions == 1 || mbps < cs.MinMBPerS {
					cs.MinMBPerS = mbps
				}
				row.PerClass[class] = cs
			}
			for class, cs := range row.PerClass {
				cs.MeanMBPerS /= float64(cs.Sessions)
				row.PerClass[class] = cs
			}
			row.MinSessionMBPerS = min
			if got == 0 || row.AggregateMBPerSec > best.AggregateMBPerSec {
				best = row
			}
			got++
		}
		if got == 0 {
			return fmt.Errorf("mux sessions=%d%s: all %d reps failed: %w", sp.sessions, sp.label, muxBenchReps, lastErr)
		}
		rows = append(rows, best)
		fmt.Printf("%-22s nodes=%d %8.0f ms  aggregate %7.1f MB/s  per-session mean %6.1f MB/s  min %6.1f MB/s\n",
			best.key(), best.Nodes, best.ElapsedMs, best.AggregateMBPerSec, best.MeanSessionMBPerS, best.MinSessionMBPerS)
		for class, cs := range best.PerClass {
			fmt.Printf("  class %-12s sessions=%-3d mean %6.1f MB/s  min %6.1f MB/s  (min/mean %.2f)\n",
				class, cs.Sessions, cs.MeanMBPerS, cs.MinMBPerS, fairnessRatio(cs))
		}
	}
	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// fairnessRatio is a class's within-class min/mean throughput ratio (1 =
// perfectly fair; the CI gate demands ≥ 0.8 by default).
func fairnessRatio(cs muxClassStats) float64 {
	if cs.MeanMBPerS <= 0 {
		return 0
	}
	return cs.MinMBPerS / cs.MeanMBPerS
}

// chaosScenarioRow is one scenario's verdict and latency summary in the
// machine-readable chaos report.
type chaosScenarioRow struct {
	Name       string             `json:"name"`
	Nodes      int                `json:"nodes"`
	Faults     int                `json:"faults"`
	OK         bool               `json:"ok"`
	CheckErr   string             `json:"check_err,omitempty"`
	ElapsedMs  float64            `json:"elapsed_ms"`
	DetectMs   benchkit.Quantiles `json:"detect_ms"`
	ResumeMs   benchkit.Quantiles `json:"resume_ms"`
	Recoveries int                `json:"recoveries"`
}

// chaosReport is the artifact `kascade-bench -chaos -json` writes.
type chaosReport struct {
	Seed      int64              `json:"seed"`
	Scenarios []chaosScenarioRow `json:"scenarios"`
	DetectMs  benchkit.Quantiles `json:"detect_ms"`
	ResumeMs  benchkit.Quantiles `json:"resume_ms"`
}

// runChaosBench sweeps the full (bench-sized) chaos matrix and writes the
// recovery report. A failing scenario prints its reproduction recipe and
// makes the run exit non-zero.
func runChaosBench(seed int64, path string) error {
	scenarios := chaos.Matrix(seed, true)
	results := chaos.RunMatrix(context.Background(), scenarios)
	rep := chaosReport{Seed: seed}
	var allDetect, allResume []float64
	failures := 0
	for _, res := range results {
		var detect, resume []float64
		for _, rec := range res.Recoveries {
			if rec.Detected {
				detect = append(detect, float64(rec.DetectLatency)/1e6)
			}
			if rec.Resumed {
				resume = append(resume, float64(rec.ResumeLatency)/1e6)
			}
		}
		allDetect = append(allDetect, detect...)
		allResume = append(allResume, resume...)
		row := chaosScenarioRow{
			Name:       res.Scenario.Name,
			Nodes:      res.Scenario.Nodes,
			Faults:     len(res.Scenario.Faults),
			OK:         true,
			ElapsedMs:  float64(res.Elapsed) / 1e6,
			DetectMs:   benchkit.Summarize(detect),
			ResumeMs:   benchkit.Summarize(resume),
			Recoveries: len(res.Recoveries),
		}
		if err := chaos.Check(res); err != nil {
			row.OK = false
			row.CheckErr = err.Error()
			failures++
			fmt.Fprintf(os.Stderr, "FAIL %s: %v\n%s\n", res.Scenario.Name, err, res.Scenario.Repro("./internal/chaos", "TestChaosMatrix/"+res.Scenario.Name, fmt.Sprintf("-chaos.seed=%d", seed)))
		}
		fmt.Printf("%-28s nodes=%-3d faults=%d ok=%-5v %8.0f ms  detect p50 %6.1f ms  resume p50 %6.1f ms\n",
			row.Name, row.Nodes, row.Faults, row.OK, row.ElapsedMs, row.DetectMs.P50, row.ResumeMs.P50)
		rep.Scenarios = append(rep.Scenarios, row)
	}
	rep.DetectMs = benchkit.Summarize(allDetect)
	rep.ResumeMs = benchkit.Summarize(allResume)
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("overall: %d scenarios, detect p50/p90/max %.1f/%.1f/%.1f ms, resume p50/p90/max %.1f/%.1f/%.1f ms\nwrote %s\n",
		len(rep.Scenarios),
		rep.DetectMs.P50, rep.DetectMs.P90, rep.DetectMs.Max,
		rep.ResumeMs.P50, rep.ResumeMs.P90, rep.ResumeMs.Max, path)
	if failures > 0 {
		return fmt.Errorf("%d scenario(s) failed their recovery invariants", failures)
	}
	return nil
}

func main() {
	list := flag.Bool("list", false, "list available experiments")
	run := flag.String("run", "all", "experiment id to run (or 'all' / 'figures')")
	reps := flag.Int("reps", 3, "repetitions per data point")
	scale := flag.Float64("scale", 0.25, "file-size scale factor (1 = paper sizes)")
	seed := flag.Int64("seed", 1, "jitter seed")
	engine := flag.Bool("engine", false, "benchmark the real protocol engine instead of the simulator")
	mux := flag.Bool("mux", false, "benchmark concurrent broadcasts multiplexed through shared engines")
	chaosRun := flag.Bool("chaos", false, "run the fault-injection scenario matrix and record recovery latencies")
	jsonPath := flag.String("json", "BENCH_1.json", "output path for -engine / -mux / -chaos results")
	compare := flag.String("compare", "", "baseline JSON; compare the fresh result files given as arguments against it (CI regression gate)")
	tolerance := flag.Float64("tolerance", 0.25, "allowed fractional aggregate-MB/s regression for -compare")
	detectFactor := flag.Float64("detect-factor", 2.0, "allowed multiple of the baseline detect p50 for chaos -compare")
	fairness := flag.Float64("fairness", 0.8, "minimum within-class per-session min/mean ratio for mux -compare (0 disables)")
	flag.Parse()

	if *compare != "" {
		files, opts, err := parseCompareArgs(flag.Args(), compareOptions{Tolerance: *tolerance, DetectFactor: *detectFactor, Fairness: *fairness})
		if err == nil {
			err = runCompare(*compare, files, opts)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "kascade-bench: compare: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *engine {
		if err := runEngineBench(*jsonPath); err != nil {
			fmt.Fprintf(os.Stderr, "kascade-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *mux {
		if err := runMuxBench(*jsonPath); err != nil {
			fmt.Fprintf(os.Stderr, "kascade-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *chaosRun {
		if err := runChaosBench(*seed, *jsonPath); err != nil {
			fmt.Fprintf(os.Stderr, "kascade-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-12s %s\n", e.ID, e.Title)
		}
		return
	}

	cfg := experiments.Config{Reps: *reps, Scale: *scale, Seed: *seed}
	var selected []experiments.Experiment
	switch *run {
	case "all":
		selected = experiments.All()
	case "figures":
		for _, e := range experiments.All() {
			if len(e.ID) > 3 && e.ID[:3] == "fig" {
				selected = append(selected, e)
			}
		}
	default:
		e, ok := experiments.Find(*run)
		if !ok {
			fmt.Fprintf(os.Stderr, "kascade-bench: unknown experiment %q (try -list)\n", *run)
			os.Exit(2)
		}
		selected = []experiments.Experiment{e}
	}

	for _, e := range selected {
		start := time.Now()
		table := e.Run(cfg)
		table.Render(os.Stdout)
		fmt.Printf("[%s: %d reps, scale %.2g, %v]\n\n", e.ID, cfg.Reps, cfg.Scale, time.Since(start).Round(time.Millisecond))
	}
}
