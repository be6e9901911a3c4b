package main

import (
	"math"
	"sort"

	"kascade/internal/stats"
)

// metricDef names one metric the benchmark prints. The table is the single
// list: BENCHMARK.json must agree with it (bench_test.go checks), the
// driver's last-line JSON is cut from it, and README.md explains each row.
type metricDef struct {
	name   string
	unit   string
	higher bool // higher is better
	layer  bool // per-layer (traced run) rather than end-to-end (untraced run)
	// extra: printed and written to -json but not listed in
	// BENCHMARK.json — it is zero on healthy runs or not defined on every
	// workload, which the driver's contract rules out.
	extra bool
}

var metricTable = []metricDef{
	{name: "throughput_MBps", unit: "MB/s", higher: true},
	{name: "cpu_s_per_GiB", unit: "s"},
	{name: "peak_rss_MiB", unit: "MiB"},
	{name: "small_latency_ms_p50", unit: "ms"},
	{name: "small_sessions_per_s", unit: "1/s", higher: true},
	{name: "setup_s", unit: "s"},
	{name: "failed_ops_share", unit: "ratio", extra: true},

	{name: "transport.write_busy_s_per_GiB", unit: "s", layer: true},
	{name: "transport.read_wait_s_per_GiB", unit: "s", layer: true},
	{name: "transport.bytes_per_write", unit: "B", higher: true, layer: true},
	{name: "transport.write_calls_per_MiB", unit: "count", layer: true},
	{name: "transport.read_calls_per_MiB", unit: "count", layer: true},
	{name: "transport.wire_overhead_share", unit: "ratio", layer: true},
	{name: "transport.dial_ms_p50", unit: "ms", layer: true},
	{name: "transport.conns_opened", unit: "count", layer: true},
	{name: "core.hop_lag_us_p50", unit: "us", layer: true},
	{name: "core.hop_lag_us_p95", unit: "us", layer: true},
	{name: "core.tail_first_chunk_ms", unit: "ms", layer: true},
	{name: "core.epilogue_ms", unit: "ms", layer: true},
	{name: "core.session_start_ms", unit: "ms", layer: true},
	{name: "core.finish_skew_ms", unit: "ms", layer: true},
	{name: "core.node_self_s_per_GiB", unit: "s", layer: true},
	{name: "core.allocs_per_chunk", unit: "count", layer: true},
	{name: "core.alloc_MiB_per_GiB", unit: "MiB", layer: true},
	{name: "core.gc_pause_ms", unit: "ms", layer: true},
	{name: "core.sched_bytes_per_turn", unit: "B", higher: true, layer: true},
	{name: "core.sched_turns_per_MiB", unit: "count", layer: true},
	{name: "core.admit_queued", unit: "count", layer: true},
	{name: "core.parked_peak", unit: "count", layer: true},
	{name: "core.small_latency_ms_p95", unit: "ms", layer: true},
	{name: "core.small_latency_ms_idle_p50", unit: "ms", layer: true},
	{name: "core.recovery_resume_ms_p50", unit: "ms", layer: true},
	{name: "core.gap_fetches", unit: "count", layer: true},
	{name: "core.spliced_bytes_share", unit: "ratio", higher: true, layer: true},
	{name: "sink.write_busy_s_per_GiB", unit: "s", layer: true},
	{name: "source.read_busy_s_per_GiB", unit: "s", layer: true},
	{name: "cmd.root_overhead_ms", unit: "ms", layer: true},
	{name: "cmd.root_cpu_s_per_GiB", unit: "s", layer: true},
	{name: "cmd.relay_cpu_s_per_GiB", unit: "s", layer: true},
	{name: "cmd.tail_cpu_s_per_GiB", unit: "s", layer: true},
	{name: "cmd.relay_sys_share", unit: "ratio", layer: true},
	{name: "cmd.ctx_switches_per_MiB", unit: "count", layer: true},
	{name: "cmd.agent_ready_ms", unit: "ms", layer: true},
	{name: "control.status_rtt_us_p50", unit: "us", layer: true},
	{name: "control.prepare_ms_p50", unit: "ms", layer: true},
	{name: "bench.trace_overhead_share", unit: "ratio", layer: true},
}

func metricByName(name string) (metricDef, bool) {
	for _, d := range metricTable {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// summary describes one sample the way every row is printed: median and
// quartiles first (what the bounds are judged on), then the paper's mean
// with its 95% Student-t interval.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Mean   float64 `json:"mean"`
	CI95   float64 `json:"ci95"`
}

func summarize(v []float64) summary {
	if len(v) == 0 {
		return summary{}
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	var acc stats.Sample
	for _, x := range s {
		acc.Add(x)
	}
	q1, q2, q3 := quartiles(s)
	return summary{N: len(s), Median: q2, Q1: q1, Q3: q3, Mean: acc.Mean(), CI95: acc.CI95()}
}

// quartiles cuts a sorted sample exactly as Python's
// statistics.quantiles(values, n=4) does (the exclusive method), because
// that is how the driver judges the spread of this benchmark's runs.
func quartiles(s []float64) (q1, q2, q3 float64) {
	m := len(s)
	if m == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// quantile is the nearest-rank q-quantile of a sorted sample, for the
// tail percentiles (p95) the quartile cut does not give.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(v []float64) float64 { return summarize(v).Median }
