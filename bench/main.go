// Command bench is the repository's benchmark: four workloads driven only
// through public surfaces (the kascade binary, core.StartSession,
// core.NewEngine, Engine.Stats, SessionConfig.Trace, transport.Network,
// control.Dial), each with an untraced run for the end-to-end metrics and a
// traced run for the per-layer ones. See README.md.
//
// Run everything and keep the numbers:
//
//	bash bench/run.sh -seed 1 -json out.json -spans spans.jsonl
//
// Run one half of one workload, as the benchmark driver does (the last
// line of standard output is the result object):
//
//	bash bench/run.sh --workload deep-chain --seed 7 --seconds 20 --trace 0
//
// Compare two result files against the bounds in BENCHMARK.json:
//
//	bash bench/run.sh -check a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Exit-path cleanup: anything that owns processes or scratch files
// registers here, so SIGINT, SIGTERM and a fatal error leave nothing behind.
var (
	cleanupMu sync.Mutex
	cleanups  = map[int]func(){}
	cleanupID int
)

// atExit registers fn for the abnormal exit paths and returns the call
// that unregisters it once the owner has cleaned up by itself.
func atExit(fn func()) (undo func()) {
	cleanupMu.Lock()
	defer cleanupMu.Unlock()
	cleanupID++
	id := cleanupID
	cleanups[id] = fn
	return func() {
		cleanupMu.Lock()
		defer cleanupMu.Unlock()
		delete(cleanups, id)
	}
}

func runCleanups() {
	cleanupMu.Lock()
	fns := make([]func(), 0, len(cleanups))
	for _, fn := range cleanups {
		fns = append(fns, fn)
	}
	cleanupMu.Unlock()
	for _, fn := range fns {
		fn()
	}
}

func fatal(err error) {
	runCleanups()
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// stamp says where and when a result file was made.
type stamp struct {
	Time       string  `json:"time"`
	Seed       uint64  `json:"seed"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Kernel     string  `json:"kernel"`
	LoadAvg1   float64 `json:"loadavg1"`
}

func newStamp(seed uint64) stamp {
	s := stamp{
		Time: time.Now().UTC().Format(time.RFC3339), Seed: seed,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		s.Kernel = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		fmt.Sscan(string(b), &s.LoadAvg1)
	}
	return s
}

// resultFile is what -json writes and -check reads: one set of runs.
type resultFile struct {
	Stamp stamp     `json:"stamp"`
	Runs  []*result `json:"runs"`
}

func main() {
	var (
		workloadFlag = flag.String("workload", "all", "workload to run: all, or one of "+strings.Join(workloadNames, ", "))
		seed         = flag.Uint64("seed", 1, "seed of payload bytes, session IDs and crash offsets")
		seconds      = flag.Float64("seconds", 20, "length of each timed region")
		traceFlag    = flag.String("trace", "both", "0: the untraced run (end-to-end metrics); 1: the traced run (per-layer metrics); both")
		runs         = flag.Int("runs", 1, "repeat everything this many times, on seed, seed+1, …: one set of runs for -check")
		jsonPath     = flag.String("json", "", "write every run's metrics and samples to this file")
		spansPath    = flag.String("spans", "", "write the traced runs' spans to this file as JSON lines (with several traced runs, the name gains the workload and seed)")
		kascade      = flag.String("kascade", "", "the kascade binary proc-chain spawns (bench/run.sh builds and passes it)")
		tmp          = flag.String("tmp", filepath.Join(".bench_build", "tmp"), "scratch directory for proc-chain's agent working directories")
		check        = flag.Bool("check", false, "compare two result files: bench -check a.json b.json")
		benchmark    = flag.String("benchmark", "BENCHMARK.json", "the bounds -check judges by")
	)
	flag.Parse()

	if *check {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-check takes two result files"))
		}
		ok, err := runCheck(os.Stdout, *benchmark, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sig
		runCleanups()
		fmt.Fprintln(os.Stderr, "bench: stopped by", s)
		os.Exit(130)
	}()

	names := workloadNames
	if *workloadFlag != "all" {
		names = []string{*workloadFlag}
	}
	var untraced, traced bool
	switch *traceFlag {
	case "0":
		untraced = true
	case "1":
		traced = true
	case "both":
		untraced, traced = true, true
	default:
		fatal(fmt.Errorf("-trace takes 0, 1 or both, not %q", *traceFlag))
	}

	st := newStamp(*seed)
	fmt.Printf("bench: nproc=%d GOMAXPROCS=%d %s kernel=%s seed=%d load1=%.2f\n", st.NProc, st.GOMAXPROCS, st.Go, st.Kernel, st.Seed, st.LoadAvg1)
	if st.LoadAvg1 > float64(st.NProc)/2 {
		fmt.Printf("bench: WARNING: 1-minute load average %.2f is above nproc/2 = %.1f; the numbers below share the machine\n", st.LoadAvg1, float64(st.NProc)/2)
	}
	file := resultFile{Stamp: st}
	for r := 0; r < *runs; r++ {
		cfg := defaultConfig()
		cfg.seed, cfg.tmp, cfg.kascade = *seed+uint64(r), *tmp, *kascade
		for _, name := range names {
			w, err := newWorkload(name, cfg)
			if err != nil {
				fatal(err)
			}
			keep := func(res *result, err error) {
				if err != nil {
					fatal(err)
				}
				printResult(os.Stdout, res)
				file.Runs = append(file.Runs, res)
			}
			if untraced {
				keep(runUntraced(w, cfg.seed, *seconds))
			}
			if traced {
				path := *spansPath
				if path != "" && (*runs > 1 || len(names) > 1) {
					ext := filepath.Ext(path)
					path = fmt.Sprintf("%s.%s.%d%s", strings.TrimSuffix(path, ext), name, cfg.seed, ext)
				}
				keep(runTraced(w, cfg.seed, *seconds, path))
			}
		}
	}
	if *jsonPath != "" {
		b, err := json.MarshalIndent(&file, "", " ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*jsonPath, append(b, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	// The driver's contract: one workload, one half, and the last line of
	// standard output is the result object.
	// It carries the verdict itself, so that mode exits 0 once it has
	// measured.
	if len(file.Runs) == 1 {
		fmt.Println(driverLine(file.Runs[0]))
		return
	}
	for _, res := range file.Runs {
		if !res.correct() {
			os.Exit(1)
		}
	}
}
