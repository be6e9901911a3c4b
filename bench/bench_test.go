package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// testKascade is the kascade binary TestMain built, or "" when it could not
// (proc-chain is skipped then).
var testKascade string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "kascade-bench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin := filepath.Join(dir, "kascade")
	if out, err := exec.Command("go", "build", "-o", bin, "kascade/cmd/kascade").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building kascade: %v\n%s", err, out)
	} else {
		testKascade = bin
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// tinyConfig shrinks every workload so all four finish in seconds.
func tinyConfig(t *testing.T) config {
	return config{seed: 7, tmp: t.TempDir(), kascade: testKascade, chainNodes: 16, bulk: 4 << 20, muxBulk: 4 << 20, procBulk: 4 << 20, small: 256 << 10}
}

const tinySeconds = 0.4

// TestSmokeAllWorkloads runs both halves of every workload at tiny sizes
// and holds the output to BENCHMARK.json: every workload and every metric
// it names must appear, with the unit and direction the bench prints.
func TestSmokeAllWorkloads(t *testing.T) {
	bm, err := readBenchmark("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bm.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the bench runs %d", len(bm.Workloads), len(workloadNames))
	}
	listed := map[string]bool{}
	for _, m := range append(append([]benchMetric(nil), bm.EndToEnd...), bm.PerLayer...) {
		listed[m.Name] = true
		d, ok := metricByName(m.Name)
		if !ok {
			t.Errorf("BENCHMARK.json names %s, which the bench does not print", m.Name)
			continue
		}
		if d.unit != m.Unit || d.higher != (m.Better == "higher") || d.extra {
			t.Errorf("%s: BENCHMARK.json says %s/%s, the bench %+v", m.Name, m.Unit, m.Better, d)
		}
	}
	for _, d := range metricTable {
		if !d.extra && !listed[d.name] {
			t.Errorf("the bench prints %s, which BENCHMARK.json does not list", d.name)
		}
	}

	for i, name := range workloadNames {
		if bm.Workloads[i].Name != name {
			t.Errorf("workload %d: BENCHMARK.json says %s, the bench %s", i, bm.Workloads[i].Name, name)
		}
		t.Run(name, func(t *testing.T) {
			if name == "proc-chain" {
				if testKascade == "" {
					t.Skip("no kascade binary")
				}
				l, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Skipf("loopback unavailable: %v", err)
				}
				l.Close()
			}
			cfg := tinyConfig(t)
			w, err := newWorkload(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			un, err := runUntraced(w, cfg.seed, tinySeconds)
			if err != nil {
				t.Fatal(err)
			}
			spans := filepath.Join(t.TempDir(), "spans.jsonl")
			tr, err := runTraced(w, cfg.seed, tinySeconds, spans)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []*result{un, tr} {
				if !r.correct() {
					t.Errorf("traced=%v: %d of %d broadcasts failed: %v", r.Traced, r.Failed, r.Attempted, r.Errors)
				}
				var line struct {
					Correct   bool
					Attempted int
					Failed    int
					Metrics   map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(driverLine(r)), &line); err != nil {
					t.Fatal(err)
				}
				want := bm.EndToEnd
				if r.Traced {
					want = bm.PerLayer
				}
				if len(line.Metrics) != len(want) {
					t.Errorf("traced=%v: driver line carries %d metrics, BENCHMARK.json lists %d", r.Traced, len(line.Metrics), len(want))
				}
				for _, m := range want {
					v, ok := line.Metrics[m.Name]
					if !ok {
						t.Errorf("traced=%v: %s missing from the driver line", r.Traced, m.Name)
					} else if !r.Traced && !(v.Value > 0) {
						t.Errorf("end-to-end metric %s = %v, must never be 0", m.Name, v.Value)
					}
				}
				var printed bytes.Buffer
				printResult(&printed, r)
				for _, m := range want {
					if !strings.Contains(printed.String(), m.Name+" ") {
						t.Errorf("traced=%v: %s not printed", r.Traced, m.Name)
					}
				}
			}
			if un.Metrics["failed_ops_share"] != 0 {
				t.Errorf("failed_ops_share = %v on a healthy run", un.Metrics["failed_ops_share"])
			}
			if _, ok := tr.Metrics["bench.trace_overhead_share"]; !ok {
				t.Error("no bench.trace_overhead_share")
			}
			b, err := os.ReadFile(spans)
			if err != nil {
				t.Fatal(err)
			}
			var first span
			if err := json.Unmarshal(b[:bytes.IndexByte(b, '\n')], &first); err != nil || first.ID == 0 || first.Name == "" {
				t.Errorf("spans file does not start with a span: %v %+v", err, first)
			}
			// Layers the workload crosses must have produced numbers.
			probe := "transport.write_busy_s_per_GiB"
			if name == "proc-chain" {
				probe = "cmd.root_cpu_s_per_GiB"
			}
			if !(tr.Metrics[probe] > 0) {
				t.Errorf("%s = %v, want > 0", probe, tr.Metrics[probe])
			}
		})
	}
}

// TestFlippedByteFailsTheOperation: a sink that corrupts one byte must
// show in failed_ops_share — the checker really checks.
func TestFlippedByteFailsTheOperation(t *testing.T) {
	cfg := tinyConfig(t)
	res, err := runUntraced(&deepChain{cfg: cfg, flipSmall: true}, cfg.seed, tinySeconds)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["failed_ops_share"] <= 0 || res.correct() {
		t.Fatalf("failed_ops_share = %v after a flipped byte, want > 0", res.Metrics["failed_ops_share"])
	}
	if len(res.Errors) == 0 || !strings.Contains(res.Errors[0], "CRC-32C") {
		t.Errorf("errors %v do not name the checksum", res.Errors)
	}
}

// TestReportWithoutVictimFailsTheOperation: tree-crash counts a broadcast
// whose report omits the killed node as failed, bytes notwithstanding.
func TestReportWithoutVictimFailsTheOperation(t *testing.T) {
	cfg := tinyConfig(t)
	w := &treeCrash{cfg: cfg, hideVictim: true}
	if err := w.setup(nil); err != nil {
		t.Fatal(err)
	}
	defer w.teardown()
	o := w.bulk(nil)
	if o.err == nil || !strings.Contains(o.err.Error(), "want exactly node 2") {
		t.Fatalf("a report omitting the victim passed: %v", o.err)
	}
	w.hideVictim = false
	if o := w.bulk(nil); o.err != nil {
		t.Fatalf("the honest report failed: %v", o.err)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 4, 8, 16}, 1.5, 4, 12},
		{[]float64{3, 9}, 1.5, 6, 10.5},
	} {
		q1, q2, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1)+math.Abs(q2-c.q2)+math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.v, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// TestCheckVerdicts drives -check over synthetic result files.
func TestCheckVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, tput func(i int) float64) string {
		var f resultFile
		for _, wl := range workloadNames {
			for i := 0; i < 10; i++ {
				f.Runs = append(f.Runs, &result{Workload: wl, Seed: uint64(i), Metrics: map[string]float64{
					"throughput_MBps": tput(i), "cpu_s_per_GiB": 1, "peak_rss_MiB": 100, "small_latency_ms_p50": 5,
					"small_sessions_per_s": 200, "setup_s": 0.3, "failed_ops_share": 0,
				}})
			}
		}
		b, _ := json.Marshal(&f)
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("a.json", func(i int) float64 { return 500 + float64(i) })
	for _, c := range []struct {
		name string
		tput func(i int) float64
		want string
		ok   bool
	}{
		{"same", func(i int) float64 { return 501 + float64(i) }, " ok", true},
		{"slower", func(i int) float64 { return 250 + float64(i) }, "regressed", false},
		{"noisy", func(i int) float64 { return 300 + 50*float64(i) }, "unresolved", false},
	} {
		var out bytes.Buffer
		ok, err := runCheck(&out, "BENCHMARK.json", base, write(c.name+".json", c.tput))
		if err != nil {
			t.Fatal(err)
		}
		row := ""
		for _, l := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(l, "deep-chain") && strings.Contains(l, "throughput_MBps") {
				row = l
			}
		}
		if ok != c.ok || !strings.HasSuffix(row, c.want) {
			t.Errorf("%s: ok=%v row %q, want ok=%v verdict %q", c.name, ok, row, c.ok, c.want)
		}
	}
}
