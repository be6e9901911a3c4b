package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// outcome is one broadcast as its caller saw it.
type outcome struct {
	wall      time.Duration // call → final report in the caller's hands
	delivered int64         // payload bytes that reached verified receivers
	err       error         // non-nil: the operation failed (error, bad bytes, bad report)
}

// workload is one row of the benchmark. Every workload has a bulk
// broadcast (its throughput shape) and a small one (1 MiB through the
// same shape, where set-up and tear-down dominate).
type workload interface {
	name() string
	shape() shape
	// setup does everything that precedes the clock: payloads, fabric,
	// engines, agent processes. rec is the traced run's recorder and nil
	// on the untraced run, which installs no decorator at all.
	setup(rec *recorder) error
	teardown()
	// bulk and small run one broadcast and verify every receiver's bytes.
	// rec non-nil asks for a traced broadcast.
	bulk(rec *recorder) outcome
	small(rec *recorder) outcome
	// concurrentSmall: the small client also runs beside the bulk client
	// (mux-mixed), and that is where its latency is taken.
	concurrentSmall() bool
	// inProcess: the bench process hosts the nodes, so its allocation
	// counters are core's.
	inProcess() bool
	// cpu is the user+sys CPU the processes hosting nodes have used.
	cpu() float64
	// rssMiB is the resident size (high-water where the kernel keeps
	// one) of the largest process hosting nodes.
	rssMiB() float64
	// layer adds the workload's own per-layer metrics after a traced run.
	layer(rec *recorder, m map[string]float64)
}

const (
	// smallShare of a timed region runs small broadcasts alone; the rest
	// runs bulk ones (with the small client alongside on mux-mixed).
	smallShare = 0.2
	// refShare of a traced run is an untraced reference: the base of
	// bench.trace_overhead_share, and where the allocation counters are
	// read, which the trace's own allocations would pollute.
	refShare = 0.35
)

// repTimeout aborts a broadcast that stopped making progress, so a hang in
// the system under test fails the operation instead of hanging the bench.
const repTimeout = 60 * time.Second

// phase is what one timed region produced.
type phase struct {
	bulk   []outcome
	idle   []outcome // small broadcasts with nothing else running
	loaded []outcome // small broadcasts beside bulk ones (mux-mixed only)
	// smallWall is how long the client behind small() ran.
	smallWall time.Duration
	cpu       float64
	rss       float64
	mem       runtime.MemStats // deltas: Mallocs, TotalAlloc, PauseTotalNs
}

// small is the sample small_latency_ms_p50 is taken from.
func (p *phase) small() []outcome {
	if p.loaded != nil {
		return p.loaded
	}
	return p.idle
}

func (p *phase) all() []outcome {
	out := append([]outcome(nil), p.bulk...)
	out = append(out, p.idle...)
	return append(out, p.loaded...)
}

func (p *phase) delivered() (n int64) {
	for _, o := range p.all() {
		n += o.delivered
	}
	return n
}

// loop runs fn back to back — a closed loop with one client — until d has
// passed (stop nil) or stop closes. It runs fn at least once.
func loop(d time.Duration, stop <-chan struct{}, fn func() outcome) []outcome {
	var out []outcome
	deadline := time.Now().Add(d)
	for {
		out = append(out, fn())
		if stop != nil {
			select {
			case <-stop:
				return out
			default:
			}
		} else if !time.Now().Before(deadline) {
			return out
		}
	}
}

// runPhase is one timed region of length d.
func runPhase(w workload, d time.Duration, rec *recorder) phase {
	var p phase
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := w.cpu()

	smallFn := func() outcome { return w.small(rec) }
	bulkFn := func() outcome {
		o := w.bulk(rec)
		if r := w.rssMiB(); r > p.rss {
			p.rss = r
		}
		return o
	}
	smallD := time.Duration(float64(d) * smallShare)
	start := time.Now()
	p.idle = loop(smallD, nil, smallFn)
	p.smallWall = time.Since(start)
	if w.concurrentSmall() {
		stop := make(chan struct{})
		done := make(chan []outcome)
		start = time.Now()
		go func() { done <- loop(0, stop, smallFn) }()
		p.bulk = loop(d-smallD, nil, bulkFn)
		close(stop)
		p.loaded = <-done
		p.smallWall = time.Since(start)
	} else {
		p.bulk = loop(d-smallD, nil, bulkFn)
	}

	p.cpu = w.cpu() - cpu0
	runtime.ReadMemStats(&m1)
	p.mem.Mallocs = m1.Mallocs - m0.Mallocs
	p.mem.TotalAlloc = m1.TotalAlloc - m0.TotalAlloc
	p.mem.PauseTotalNs = m1.PauseTotalNs - m0.PauseTotalNs
	return p
}

// warmUp lets pools, the page cache and lazy set-up settle before the
// clock. Its broadcasts are verified and counted like any other (a failure
// here is a failed operation), only not timed.
func warmUp(w workload) *phase {
	var p phase
	for i := 0; i < 2; i++ {
		p.bulk = append(p.bulk, w.bulk(nil))
	}
	for i := 0; i < 5; i++ {
		p.idle = append(p.idle, w.small(nil))
	}
	return &p
}

// setupReps is how many times the untraced run sets up (tearing down in
// between); setup_s is their median, so one slow page-fault storm or fork
// does not decide it.
const setupReps = 3

// result is one run of one workload: the untraced or the traced half.
type result struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Traced    bool               `json:"traced"`
	Seconds   float64            `json:"seconds"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	Samples   map[string]summary `json:"samples,omitempty"`
}

func newResult(w workload, seed uint64, seconds float64, traced bool) *result {
	return &result{Workload: w.name(), Seed: seed, Traced: traced, Seconds: seconds, Metrics: map[string]float64{}, Samples: map[string]summary{}}
}

func (r *result) correct() bool { return r.Failed == 0 && r.Attempted > 0 }

// count books the phases' broadcasts as attempted, and as failed where
// they carry an error.
func (r *result) count(phases ...*phase) {
	for _, p := range phases {
		for _, o := range p.all() {
			r.Attempted++
			if o.err != nil {
				r.Failed++
				if len(r.Errors) < 8 {
					r.Errors = append(r.Errors, o.err.Error())
				}
			}
		}
	}
}

// put records a sampled metric: the run's value is the sample's median.
func (r *result) put(name string, v []float64) {
	s := summarize(v)
	r.Samples[name] = s
	r.Metrics[name] = s.Median
}

// rates turns good broadcasts into MB/s; walls into durations in unit.
func rates(outs []outcome, size int64) []float64 {
	v := make([]float64, 0, len(outs))
	for _, o := range outs {
		if o.err == nil {
			v = append(v, float64(size)/1e6/o.wall.Seconds())
		}
	}
	return v
}

func walls(outs []outcome, unit time.Duration) []float64 {
	v := make([]float64, 0, len(outs))
	for _, o := range outs {
		if o.err == nil {
			v = append(v, float64(o.wall)/float64(unit))
		}
	}
	return v
}

func gib(n int64) float64 { return float64(n) / (1 << 30) }

// per is a/b, and 0 where nothing was delivered to divide by (every
// broadcast failed): the result line must stay a number.
func per(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// release returns freed memory to the kernel, so each set-up repetition
// starts from the same resident size and peak_rss_MiB is the timed
// region's, not the set-up loop's garbage.
func release() {
	runtime.GC()
	debug.FreeOSMemory()
}

// runUntraced measures the end-to-end metrics: no decorator, no Trace hook.
func runUntraced(w workload, seed uint64, seconds float64) (*result, error) {
	res := newResult(w, seed, seconds, false)
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			w.teardown()
			release()
		}
		t0 := time.Now()
		if err := w.setup(nil); err != nil {
			w.teardown()
			return nil, fmt.Errorf("%s: set-up: %w", w.name(), err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.teardown()
	res.count(warmUp(w))
	release()

	p := runPhase(w, time.Duration(seconds*float64(time.Second)), nil)
	res.count(&p)
	sh := w.shape()
	res.put("throughput_MBps", rates(p.bulk, sh.bulkSize))
	lat := walls(p.small(), time.Millisecond)
	res.put("small_latency_ms_p50", lat)
	res.put("setup_s", setups)
	res.Metrics["small_sessions_per_s"] = per(float64(len(lat)), p.smallWall.Seconds())
	res.Metrics["cpu_s_per_GiB"] = per(p.cpu, gib(p.delivered()))
	res.Metrics["peak_rss_MiB"] = p.rss
	res.Metrics["failed_ops_share"] = per(float64(res.Failed), float64(res.Attempted))
	return res, nil
}

// runTraced measures the per-layer metrics: a short untraced reference,
// then the same loop with decorators and the Trace hook installed. The
// spans go to spansPath, if one is given, when the run ends.
func runTraced(w workload, seed uint64, seconds float64, spansPath string) (*result, error) {
	res := newResult(w, seed, seconds, true)
	sh := w.shape()
	rec := newRecorder(sh.nodes)
	if err := w.setup(rec); err != nil {
		w.teardown()
		return nil, fmt.Errorf("%s: set-up: %w", w.name(), err)
	}
	defer w.teardown()
	res.count(warmUp(w))
	release()

	total := time.Duration(seconds * float64(time.Second))
	refD := time.Duration(float64(total) * refShare)
	ref := runPhase(w, refD, nil)

	rec.root, rec.rootStart = rec.open(), time.Now()
	rec.on.Store(true)
	tr := runPhase(w, total-refD, rec)
	rec.on.Store(false)
	rec.add(rec.root, 0, "run "+w.name(), 0, -1, rec.rootStart, time.Now())
	res.count(&ref, &tr)

	m := res.Metrics
	for _, d := range metricTable {
		if d.layer {
			m[d.name] = 0 // a layer this workload does not cross reads 0
		}
	}
	if u := median(rates(ref.bulk, sh.bulkSize)); u > 0 {
		m["bench.trace_overhead_share"] = (u - median(rates(tr.bulk, sh.bulkSize))) / u
	}

	if w.inProcess() {
		var chunks float64
		for _, o := range ref.bulk {
			chunks += float64(o.delivered) / float64(sh.bulkChunk)
		}
		for _, o := range append(ref.idle, ref.loaded...) {
			chunks += float64(o.delivered) / float64(sh.smallChunk)
		}
		m["core.allocs_per_chunk"] = per(float64(ref.mem.Mallocs), chunks)
		m["core.alloc_MiB_per_GiB"] = per(float64(ref.mem.TotalAlloc)/(1<<20), gib(ref.delivered()))
		m["core.gc_pause_ms"] = float64(ref.mem.PauseTotalNs) / 1e6
	}

	lat := walls(tr.small(), time.Millisecond)
	sort.Float64s(lat)
	res.Samples["core.small_latency_ms"] = summarize(lat)
	m["core.small_latency_ms_p95"] = quantile(lat, 0.95)
	m["core.small_latency_ms_idle_p50"] = median(walls(tr.idle, time.Millisecond))

	rec.layer(m, gib(tr.delivered()))
	w.layer(rec, m)

	if spansPath != "" {
		if err := rec.writeSpans(spansPath); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "bench: %s: %d spans written to %s (%d per-call spans over the cap dropped)\n", w.name(), len(rec.spans), spansPath, rec.dropped.Load())
	}
	return res, nil
}
