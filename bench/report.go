package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// printResult prints every metric of one run by name, with its unit; the
// sampled ones with median, quartiles, sample count and the paper's
// mean ± 95% Student-t interval.
func printResult(w io.Writer, r *result) {
	half := "untraced"
	if r.Traced {
		half = "traced"
	}
	verdict := "all correct"
	if !r.correct() {
		verdict = fmt.Sprintf("FAILED %d", r.Failed)
	}
	fmt.Fprintf(w, "\n== %s  %s run  seed %d  %.0f s  %d broadcasts, %s\n", r.Workload, half, r.Seed, r.Seconds, r.Attempted, verdict)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "   error: %s\n", e)
	}
	for _, d := range metricTable {
		v, ok := r.Metrics[d.name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%-34s %14s %-6s", d.name, strconv.FormatFloat(v, 'g', 6, 64), d.unit)
		if s, ok := r.Samples[d.name]; ok {
			fmt.Fprintf(w, " n=%-4d median %.6g [q1 %.6g, q3 %.6g]  mean %.6g ± %.3g", s.N, s.Median, s.Q1, s.Q3, s.Mean, s.CI95)
		}
		fmt.Fprintln(w)
	}
}

// driverLine is the object the benchmark driver reads off the last line:
// exactly the metrics BENCHMARK.json lists for this half, every digit kept.
func driverLine(r *result) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, map[string]value{}}
	for _, d := range metricTable {
		if d.layer == r.Traced && !d.extra {
			out.Metrics[d.name] = value{r.Metrics[d.name], d.unit}
		}
	}
	b, _ := json.Marshal(out) // a struct of numbers and strings cannot fail
	return string(b)
}
