package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json the bench reads back.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// readBenchmark finds BENCHMARK.json from the repository root or from
// bench/ (where go run -C bench and go test put the working directory).
func readBenchmark(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) && !filepath.IsAbs(path) {
		b, err = os.ReadFile(filepath.Join("..", path))
	}
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func readResults(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// values gathers one end-to-end metric of one workload over a set's runs.
func (f *resultFile) values(workload, metric string) []float64 {
	var v []float64
	for _, r := range f.Runs {
		if x, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Traced {
			v = append(v, x)
		}
	}
	sort.Float64s(v)
	return v
}

// spread is the distance between a set's quartiles as a share of its
// median: how far the same code's runs disagree.
func spread(sorted []float64) float64 {
	if len(sorted) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(sorted)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// verdict judges set b against set a for one metric, by the rule the
// choosing-metrics guide gives: the medians may differ by the bound;
// where the runs of either set spread wider than the bound, the row is
// unresolved unless every run of b is at least as good as every run of a.
func verdict(a, b []float64, higher bool, bound float64) (string, float64) {
	ma, mb := median(a), median(b)
	worse := 0.0 // by how much of a's median b is worse
	if ma != 0 {
		worse = (mb - ma) / ma
		if higher {
			worse = -worse
		}
	} else if mb > 0 && !higher {
		worse = 1
	}
	if spread(a) > bound || spread(b) > bound {
		clean := true
		for _, x := range b {
			for _, y := range a {
				if (higher && x < y) || (!higher && x > y) {
					clean = false
				}
			}
		}
		if !clean {
			return "unresolved", worse
		}
	}
	if worse > bound {
		return "regressed", worse
	}
	return "ok", worse
}

// runCheck prints one row per workload and end-to-end metric and reports
// whether every row is ok.
func runCheck(w io.Writer, benchmarkPath, pathA, pathB string) (bool, error) {
	bm, err := readBenchmark(benchmarkPath)
	if err != nil {
		return false, err
	}
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	// failed_ops_share is not in BENCHMARK.json (it is 0 on every healthy
	// run, which the driver's contract rules out) but is judged here, with
	// no slack at all.
	metrics := append(append([]benchMetric(nil), bm.EndToEnd...), benchMetric{Name: "failed_ops_share", Unit: "ratio", Better: "lower"})
	allOK := true
	fmt.Fprintf(w, "%-12s %-22s %12s %12s %8s %8s %8s  %s\n", "workload", "metric", "median a", "median b", "worse", "bound", "spread", "verdict")
	for _, wl := range bm.Workloads {
		for _, m := range metrics {
			va, vb := a.values(wl.Name, m.Name), b.values(wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-12s %-22s missing from one set\n", wl.Name, m.Name)
				allOK = false
				continue
			}
			v, worse := verdict(va, vb, m.Better == "higher", m.Bound)
			if v != "ok" {
				allOK = false
			}
			sp := spread(va)
			if s := spread(vb); s > sp {
				sp = s
			}
			fmt.Fprintf(w, "%-12s %-22s %12.6g %12.6g %+7.1f%% %7.0f%% %7.1f%%  %s\n", wl.Name, m.Name, median(va), median(vb), 100*worse, 100*m.Bound, 100*sp, v)
		}
	}
	fmt.Fprintf(w, "runs per set: a=%d b=%d (a spread needs at least two)\n", len(a.values(bm.Workloads[0].Name, "setup_s")), len(b.values(bm.Workloads[0].Name, "setup_s")))
	return allOK, nil
}
