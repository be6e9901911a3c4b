package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"kascade/internal/control"
	"kascade/internal/core"
)

const procAgents = 3

// sinkCommand is every agent's sink: POSIX cksum of the stream, left in the
// agent's own working directory and compared with the source's cksum. Two
// other sinks were tried while sizing and must not come back: a file sink
// (-o) is bimodal on tmpfs — os.Create re-truncates the previous copy, and
// broadcasts alternate between 1.9 s and 3.3 s per GiB — and a sha256sum
// sink caps the whole chain at about 105 MB/s.
const sinkCommand = "cksum > sum.txt"

// smallSink is the small broadcast's sink: a 1 MiB file in each agent's
// working directory, read back and checked against the source's CRC-32C.
// The pipe sink costs six process starts per broadcast (sh and cksum on
// every agent), which at 1 MiB is most of the latency and none of it
// kascade's; the file sink's bimodality needs hundreds of MiB to show.
const smallSink = "out.bin"

// procChain: the paper's deployment shape and the real surface — one
// kascade root and three kascade agent processes over loopback TCP with
// the CLI's defaults (chain, 1 MiB chunks, splice on). cmd, control, kernel
// TCP and the sink pipe do all the work here and none elsewhere.
type procChain struct {
	cfg    config
	dir    string
	undo   func() // unregisters the exit-path cleanup
	agents []*agentProc
	inputs map[string]procInput // "bulk", "small"

	rootCPU float64 // finished roots' user+sys, summed

	// Traced run: per-broadcast samples by role, and the control probes.
	traced struct {
		rootOverheadMs                          []float64
		rootCPU, relayCPU, tailCPU, relaySys    float64
		ctxSwitches, splicedBytes, relayedBytes float64
		deliveredMiB                            float64
		statusRTTus, prepareMs                  []float64
	}
}

type procInput struct {
	file  *os.File
	path  string // what the root's -i names
	size  int64
	cksum string // "<crc> <size>", as cksum prints it for standard input
	crc   uint32 // CRC-32C, for sinks the bench reads back itself
}

type agentProc struct {
	cmd     *exec.Cmd
	dir     string
	control string // control address
	port    int
	client  *control.Client
	readyMs float64
}

func (w *procChain) name() string          { return "proc-chain" }
func (w *procChain) concurrentSmall() bool { return false }
func (w *procChain) inProcess() bool       { return false }
func (w *procChain) shape() shape {
	// The CLI's default chunk is 1 MiB for both broadcasts.
	return shape{nodes: procAgents + 1, bulkSize: w.cfg.procBulk, smallSize: w.cfg.small, bulkChunk: 1 << 20, smallChunk: 1 << 20}
}

// sysMemfdCreate is memfd_create's number where the bench knows it (the
// frozen syscall package lacks it on amd64).
var sysMemfdCreate = map[string]uintptr{"amd64": 319, "arm64": 279}[runtime.GOARCH]

// sourceFile opens the file a payload is written to and the root reads:
// an anonymous memory file (what "read from tmpfs" comes to, without
// leaving the checkout), named to the root through /proc. Creating a
// 256 MiB file on the checkout's ext4 instead stalls for a second every
// few set-ups, behind the journal's commit of the previous one's discard;
// that is the fallback where memfd_create is not to be had.
func sourceFile(fallback string) (*os.File, string, error) {
	if sysMemfdCreate != 0 {
		name := append([]byte(filepath.Base(fallback)), 0)
		if fd, _, errno := syscall.Syscall(sysMemfdCreate, uintptr(unsafe.Pointer(&name[0])), 0, 0); errno == 0 {
			return os.NewFile(fd, fallback), fmt.Sprintf("/proc/%d/fd/%d", os.Getpid(), fd), nil
		}
	}
	f, err := os.Create(fallback)
	return f, fallback, err
}

var agentBanner = regexp.MustCompile(`control on (\S+), data on (\S+)`)

func (w *procChain) setup(rec *recorder) error {
	if w.cfg.kascade == "" {
		return fmt.Errorf("no kascade binary: run through bench/run.sh, or pass -kascade")
	}
	if err := os.MkdirAll(w.cfg.tmp, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(w.cfg.tmp, "proc-chain-")
	if err != nil {
		return err
	}
	w.dir = dir
	w.undo = atExit(w.kill)

	w.inputs = map[string]procInput{}
	if err := w.makeInput("bulk", w.cfg.procBulk, seedBulk); err != nil {
		return err
	}
	if err := w.makeInput("small", w.cfg.small, seedSmall); err != nil {
		return err
	}
	for i := 0; i < procAgents; i++ {
		if err := w.spawnAgent(i); err != nil {
			return err
		}
	}
	// The root sorts -N by host number, which for host:port names is the
	// port: sort the same way, so agents[0..1] are the relays and
	// agents[2] the tail without passing -no-sort.
	sort.Slice(w.agents, func(i, j int) bool { return w.agents[i].port < w.agents[j].port })
	w.rootCPU = 0
	if rec != nil {
		return w.probeControl()
	}
	return nil
}

// makeInput generates one source payload into a file the root can open and
// takes its cksum.
func (w *procChain) makeInput(kind string, size int64, seed uint64) error {
	pay := newPayload(size, w.cfg.seed+seed)
	in := procInput{size: size, crc: pay.crc}
	var err error
	if in.file, in.path, err = sourceFile(filepath.Join(w.dir, kind+".bin")); err != nil {
		return err
	}
	w.inputs[kind] = in // kill closes it from here on
	if _, err := in.file.Write(pay.data); err != nil {
		return err
	}
	if _, err := in.file.Seek(0, io.SeekStart); err != nil {
		return err
	}
	cmd := exec.Command("cksum")
	cmd.Stdin = in.file
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("cksum of the source: %w", err)
	}
	in.cksum = strings.TrimSpace(string(out))
	w.inputs[kind] = in
	return nil
}

// spawnAgent starts one agent in its own working directory on free ports
// (it binds :0 and says which it got) and waits until its control port
// answers.
func (w *procChain) spawnAgent(i int) error {
	a := &agentProc{dir: filepath.Join(w.dir, fmt.Sprintf("agent%d", i))}
	if err := os.Mkdir(a.dir, 0o755); err != nil {
		return err
	}
	a.cmd = exec.Command(w.cfg.kascade, "agent", "-listen", "127.0.0.1:0")
	a.cmd.Dir = a.dir
	// Own process group, so the sink shells die with the agent.
	a.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	stderr, err := a.cmd.StderrPipe()
	if err != nil {
		return err
	}
	start := time.Now()
	if err := a.cmd.Start(); err != nil {
		return err
	}
	w.agents = append(w.agents, a) // kill reaches it from here on, ready or not

	banner := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() { // keep draining: a full pipe would block the agent
			if m := agentBanner.FindStringSubmatch(sc.Text()); m != nil && !sent {
				banner <- m[1]
				sent = true
			}
		}
		if !sent {
			close(banner)
		}
	}()
	select {
	case addr, ok := <-banner:
		if !ok {
			return fmt.Errorf("agent %d exited before announcing its ports", i)
		}
		a.control = addr
	case <-time.After(10 * time.Second):
		return fmt.Errorf("agent %d did not announce its ports within 10 s", i)
	}
	_, port, err := net.SplitHostPort(a.control)
	if err != nil {
		return err
	}
	a.port, _ = strconv.Atoi(port)
	a.client, err = control.Dial(a.control, 5*time.Second, control.ClientOptions{})
	if err != nil {
		return fmt.Errorf("agent %d control port: %w", i, err)
	}
	a.readyMs = float64(time.Since(start)) / 1e6
	return nil
}

// probeControl times the control plane against idle agents.
func (w *procChain) probeControl() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ids := sessionIDs{base: w.cfg.seed << 20}
	for _, a := range w.agents {
		for i := 0; i < 50; i++ {
			t0 := time.Now()
			if _, err := a.client.Status(ctx); err != nil {
				return fmt.Errorf("status probe: %w", err)
			}
			w.traced.statusRTTus = append(w.traced.statusRTTus, float64(time.Since(t0))/1e3)
		}
		for i := 0; i < 20; i++ {
			sid := core.SessionID(ids.next())
			t0 := time.Now()
			if _, err := a.client.Prepare(ctx, control.PrepareRequest{Session: sid, Reservation: (core.Options{}).PoolReservation(), Class: core.ClassBulk}); err != nil {
				return fmt.Errorf("prepare probe: %w", err)
			}
			if _, err := a.client.Release(ctx, sid); err != nil {
				return fmt.Errorf("release probe: %w", err)
			}
			w.traced.prepareMs = append(w.traced.prepareMs, float64(time.Since(t0))/1e6)
		}
	}
	return nil
}

// kill stops every agent (and its sink shells) and removes the scratch
// directory. It is the teardown and the exit-path cleanup alike.
func (w *procChain) kill() {
	for _, a := range w.agents {
		if a.client != nil {
			a.client.Close()
		}
		if a.cmd.Process != nil {
			_ = syscall.Kill(-a.cmd.Process.Pid, syscall.SIGKILL) // the group; the agent is its leader
			_ = a.cmd.Wait()
		}
	}
	w.agents = nil
	for _, in := range w.inputs {
		in.file.Close()
	}
	w.inputs = nil
	if w.dir != "" {
		os.RemoveAll(w.dir)
		w.dir = ""
	}
}

func (w *procChain) teardown() {
	w.kill()
	if w.undo != nil {
		w.undo()
		w.undo = nil
	}
}

func (w *procChain) bulk(rec *recorder) outcome  { return w.broadcast("bulk", rec) }
func (w *procChain) small(rec *recorder) outcome { return w.broadcast("small", rec) }

var rootSummary = regexp.MustCompile(`node\(s\) in (\S+) \(`)

// broadcast runs one kascade root against the agents and checks the exit
// status, the printed report and every agent's cksum.
func (w *procChain) broadcast(kind string, rec *recorder) outcome {
	in := w.inputs[kind]
	sink, sinkFile := []string{"-O", sinkCommand}, "sum.txt"
	if kind == "small" {
		sink, sinkFile = []string{"-o", smallSink}, smallSink
	}
	for _, a := range w.agents {
		os.Remove(filepath.Join(a.dir, sinkFile)) // a stale copy must not pass for this broadcast's
	}
	addrs := make([]string, len(w.agents))
	for i, a := range w.agents {
		addrs[i] = a.control
	}
	var before []procSample
	if rec != nil {
		before = w.sampleAgents(true)
	}

	ctx, cancel := context.WithTimeout(context.Background(), repTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, w.cfg.kascade, append([]string{"-N", strings.Join(addrs, ","), "-i", in.path}, sink...)...)
	cmd.Dir = w.dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	t0 := time.Now()
	err := cmd.Run()
	out := outcome{wall: time.Since(t0)}

	var ru *syscall.Rusage
	if cmd.ProcessState != nil {
		ru, _ = cmd.ProcessState.SysUsage().(*syscall.Rusage)
		w.rootCPU += (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds()
	}
	fail := func(format string, args ...any) outcome {
		out.err = fmt.Errorf("%s broadcast: "+format, append([]any{kind}, args...)...)
		return out
	}
	if ctx.Err() != nil {
		return fail("kascade root still running after %v: killed", repTimeout)
	}
	if err != nil {
		return fail("kascade: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	if got, want := strings.TrimSpace(stdout.String()), fmt.Sprintf("broadcast of %d bytes: no failures", in.size); got != want {
		return fail("report %q, want %q", got, want)
	}
	for i, a := range w.agents {
		got, err := os.ReadFile(filepath.Join(a.dir, sinkFile))
		if err != nil {
			return fail("agent %d sink: %v", i, err)
		}
		if kind == "small" {
			if int64(len(got)) != in.size || crc32.Checksum(got, castagnoli) != in.crc {
				return fail("agent %d wrote %d bytes with CRC-32C %08x, source has %d with %08x", i, len(got), crc32.Checksum(got, castagnoli), in.size, in.crc)
			}
		} else if sum := strings.TrimSpace(string(got)); sum != in.cksum {
			return fail("agent %d cksum %q, source %q", i, sum, in.cksum)
		}
		out.delivered += in.size
	}
	if rec != nil {
		w.noteTraced(rec, kind, t0, out, before, ru, stderr.String())
	}
	return out
}

// noteTraced books one traced broadcast: the root's span and overhead, and
// what each role spent (from /proc and the agents' STATUS).
func (w *procChain) noteTraced(rec *recorder, kind string, t0 time.Time, out outcome, before []procSample, ru *syscall.Rusage, stderr string) {
	id := rec.add(0, rec.root, "kascade root "+kind, 0, 0, t0, t0.Add(out.wall))
	tr := &w.traced
	if m := rootSummary.FindStringSubmatch(stderr); m != nil {
		if d, err := time.ParseDuration(m[1]); err == nil {
			tr.rootOverheadMs = append(tr.rootOverheadMs, float64(out.wall-d)/1e6)
			// The root prints its transfer time, not when it began:
			// it ends when the root does, less the result gathering.
			rec.add(0, id, "core.Node.Run (reported)", 0, 0, t0.Add(out.wall-d), t0.Add(out.wall))
		}
	}
	after := w.sampleAgents(true)
	for i := range after {
		d := after[i].sub(before[i])
		if i == len(after)-1 {
			tr.tailCPU += d.user + d.sys
		} else {
			tr.relayCPU += d.user + d.sys
			tr.relaySys += d.sys
		}
		tr.ctxSwitches += d.ctxSwitches
		tr.splicedBytes += d.spliced
	}
	if ru != nil {
		tr.rootCPU += float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
		tr.ctxSwitches += float64(ru.Nvcsw + ru.Nivcsw)
	}
	tr.deliveredMiB += float64(out.delivered) / (1 << 20)
	// Every agent but the tail relays the whole payload once.
	tr.relayedBytes += float64(out.delivered) / float64(len(w.agents)) * float64(len(w.agents)-1)
}

// sampleAgents reads every agent from /proc and, for a traced broadcast
// (status), also its threads' context switches and its engine's splice
// counter over the control channel.
func (w *procChain) sampleAgents(status bool) []procSample {
	s := make([]procSample, len(w.agents))
	for i, a := range w.agents {
		s[i] = readProc(a.cmd.Process.Pid, status)
		if status {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			if st, err := a.client.Status(ctx); err == nil {
				s[i].spliced = float64(st.Engine.SplicedBytes)
			}
			cancel()
		}
	}
	return s
}

func (w *procChain) cpu() float64 {
	total := w.rootCPU
	for _, s := range w.sampleAgents(false) {
		total += s.user + s.sys
	}
	return total
}

func (w *procChain) rssMiB() float64 {
	var peak float64
	for _, s := range w.sampleAgents(false) {
		if s.hwmMiB > peak {
			peak = s.hwmMiB
		}
	}
	return peak
}

func (w *procChain) layer(rec *recorder, m map[string]float64) {
	tr := &w.traced
	m["cmd.root_overhead_ms"] = median(tr.rootOverheadMs)
	g := tr.deliveredMiB / 1024
	m["cmd.root_cpu_s_per_GiB"] = per(tr.rootCPU, g)
	m["cmd.relay_cpu_s_per_GiB"] = per(tr.relayCPU, g)
	m["cmd.tail_cpu_s_per_GiB"] = per(tr.tailCPU, g)
	m["cmd.ctx_switches_per_MiB"] = per(tr.ctxSwitches, tr.deliveredMiB)
	m["cmd.relay_sys_share"] = per(tr.relaySys, tr.relayCPU)
	m["core.spliced_bytes_share"] = per(tr.splicedBytes, tr.relayedBytes)
	var ready []float64
	for _, a := range w.agents {
		ready = append(ready, a.readyMs)
	}
	m["cmd.agent_ready_ms"] = median(ready)
	m["control.status_rtt_us_p50"] = median(tr.statusRTTus)
	m["control.prepare_ms_p50"] = median(tr.prepareMs)
}
