package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// procSample is one reading of a process from /proc.
type procSample struct {
	user, sys   float64 // CPU seconds of the process itself, children excluded
	ctxSwitches float64 // voluntary + involuntary, summed over its threads
	hwmMiB      float64 // VmHWM: the resident-size high-water mark
	spliced     float64 // the agent's EngineStats.SplicedBytes (traced runs)
}

func (a procSample) sub(b procSample) procSample {
	return procSample{user: a.user - b.user, sys: a.sys - b.sys, ctxSwitches: a.ctxSwitches - b.ctxSwitches, hwmMiB: a.hwmMiB, spliced: a.spliced - b.spliced}
}

// userHz is the unit of /proc/<pid>/stat's utime and stime: the kernel
// reports them in USER_HZ ticks, which Linux fixes at 100 for user space.
const userHz = 100

// readProc reads a live process; threads asks for the context switches
// too, which cost one file per thread. A process that has gone reads as
// zero: the broadcast it served has failed by then and is counted as such.
func readProc(pid int, threads bool) procSample {
	var s procSample
	dir := filepath.Join("/proc", strconv.Itoa(pid))
	if b, err := os.ReadFile(filepath.Join(dir, "stat")); err == nil {
		// The command name may hold spaces; fields resume after ")".
		if i := bytes.LastIndexByte(b, ')'); i >= 0 {
			f := strings.Fields(string(b[i+1:]))
			if len(f) > 12 { // f[0] is field 3 (state): utime is 14, stime 15
				u, _ := strconv.ParseFloat(f[11], 64)
				k, _ := strconv.ParseFloat(f[12], 64)
				s.user, s.sys = u/userHz, k/userHz
			}
		}
	}
	s.hwmMiB = statusField(filepath.Join(dir, "status"), "VmHWM:") / 1024
	if !threads {
		return s
	}
	// Context switches are per thread: the leader's status alone would
	// miss the Go runtime's other threads.
	tasks, _ := os.ReadDir(filepath.Join(dir, "task"))
	for _, t := range tasks {
		p := filepath.Join(dir, "task", t.Name(), "status")
		s.ctxSwitches += statusField(p, "voluntary_ctxt_switches:") + statusField(p, "nonvoluntary_ctxt_switches:")
	}
	return s
}

// statusField returns the number after key in a /proc status file, or 0.
func statusField(path, key string) float64 {
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), key); ok {
			var v float64
			fmt.Sscan(rest, &v)
			return v
		}
	}
	return 0
}
