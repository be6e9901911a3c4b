package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"kascade/internal/control"
	"kascade/internal/core"
	"kascade/internal/iolimit"
	"kascade/internal/transport"
)

// pipeSize reports the capacity of the pipe behind f (fcntl F_GETPIPE_SZ).
func pipeSize(t *testing.T, f *os.File) int {
	t.Helper()
	const fGetPipeSize = 1032
	rc, err := f.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var n uintptr
	var errno syscall.Errno
	if err := rc.Control(func(fd uintptr) {
		n, _, errno = syscall.Syscall(syscall.SYS_FCNTL, fd, fGetPipeSize, 0)
	}); err != nil {
		t.Fatal(err)
	}
	if errno != 0 {
		t.Fatalf("F_GETPIPE_SZ: %v", errno)
	}
	return int(n)
}

// TestSinkPipeHoldsChunk: a command sink's pipe holds one whole chunk, up to
// the kernel's default pipe-max-size, and still delivers every byte before
// the closer returns.
func TestSinkPipeHoldsChunk(t *testing.T) {
	for _, tc := range []struct{ chunk, lo, hi int }{
		{256 << 10, 256 << 10, maxSinkPipe},
		{4 << 20, maxSinkPipe, maxSinkPipe},
	} {
		out := filepath.Join(t.TempDir(), "out")
		w, closeSink, err := openSink(sinkSpec{Command: "cat > " + out}, tc.chunk)
		if err != nil {
			t.Fatal(err)
		}
		f, ok := w.(*os.File)
		if !ok {
			closeSink()
			t.Fatalf("command sink is a %T, want *os.File", w)
		}
		var _ core.PipeSink = f // so that nodes may splice into it
		if n := pipeSize(t, f); n < tc.lo || n > tc.hi {
			closeSink()
			t.Fatalf("chunk %d: pipe holds %d bytes, want %d to %d", tc.chunk, n, tc.lo, tc.hi)
		}
		payload := make([]byte, 3<<20+17)
		iolimit.NewPattern(int64(len(payload)), 3).Read(payload)
		if _, err := w.Write(payload); err != nil {
			closeSink()
			t.Fatal(err)
		}
		closeSink() // must wait for cat to finish writing out
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("chunk %d: sink wrote %d bytes, want the %d sent", tc.chunk, len(got), len(payload))
		}
	}
}

// TestSinkCommandEarlyExitAbandons: a -O command that exits after its first
// byte turns a later write into a sink error, and the agent abandons the
// session and reports that error instead of hanging. The agent is the
// chain's tail, so the error comes from the stage that splices payloads
// into the command's pipe.
func TestSinkCommandEarlyExitAbandons(t *testing.T) {
	_, addr := startTestAgent(t, core.EngineOptions{}, 0)
	client, err := control.Dial(addr, 5*time.Second, control.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	payload := make([]byte, 8<<20)
	iolimit.NewPattern(int64(len(payload)), 9).Read(payload)
	report, res, err := broadcastThrough(ctx, client, 91, payload, sinkSpec{Command: "head -c 1 > /dev/null"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err == "" || res.Bytes == uint64(len(payload)) {
		t.Errorf("agent result: error %q after %d of %d bytes, want a failed session", res.Err, res.Bytes, len(payload))
	}
	if !strings.Contains(res.Err, "sink write failed") {
		t.Errorf("agent result: error %q does not name the sink failure", res.Err)
	}
	if !report.Failed(1) {
		t.Errorf("sender report does not name the agent: %v", report)
	}
}

// spliceStdinEnv, when set to a directory, turns the test binary into a -O
// command that splices the first spliceHoldBytes of its standard input into
// a pipe of its own and reads the rest. Once its input has ended it creates
// "spliced" in that directory, waits for "go" there, and then writes the
// held bytes and the rest, in order, to "out".
const spliceStdinEnv = "KASCADE_TEST_SPLICE_STDIN"

const spliceHoldBytes = 256 << 10

func init() {
	if dir := os.Getenv(spliceStdinEnv); dir != "" {
		if err := spliceStdin(dir); err != nil {
			fmt.Fprintln(os.Stderr, "splice helper:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
}

func spliceStdin(dir string) error {
	var hold [2]int
	if err := syscall.Pipe2(hold[:], syscall.O_CLOEXEC); err != nil {
		return err
	}
	_, _, _ = syscall.Syscall(syscall.SYS_FCNTL, uintptr(hold[1]), fSetPipeSize, 1<<20)
	held := 0
	for held < spliceHoldBytes {
		n, err := syscall.Splice(0, nil, hold[1], nil, spliceHoldBytes-held, 0)
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return fmt.Errorf("splice: %w", err)
		}
		if n == 0 {
			break
		}
		held += int(n)
	}
	rest, err := io.ReadAll(os.Stdin)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "spliced"), nil, 0o644); err != nil {
		return err
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if _, err := os.Stat(filepath.Join(dir, "go")); err == nil {
			break
		}
		if time.Now().After(deadline) {
			return errors.New("never told to go")
		}
	}
	out, err := os.Create(filepath.Join(dir, "out"))
	if err != nil {
		return err
	}
	defer out.Close()
	if _, err := io.CopyN(out, os.NewFile(uintptr(hold[0]), "hold"), int64(held)); err != nil {
		return err
	}
	_, err = out.Write(rest)
	return err
}

// TestSinkCommandSplicingStdinGetsPayload: a -O command that splices its
// input onward into a pipe of its own, and reads that pipe only after its
// session is over and later broadcasts through the same agent have reused
// the buffers, still receives the payload intact. The pipe the agent feeds
// must never refer to memory that the agent recycles.
func TestSinkCommandSplicingStdinGetsPayload(t *testing.T) {
	_, addr := startTestAgent(t, core.EngineOptions{}, 0)
	client, err := control.Dial(addr, 5*time.Second, control.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	dir := t.TempDir()
	payload := make([]byte, 2<<20)
	iolimit.NewPattern(int64(len(payload)), 21).Read(payload)
	helper := fmt.Sprintf("%s='%s' exec '%s'", spliceStdinEnv, dir, os.Args[0])
	type result struct {
		res *control.ResultReply
		err error
	}
	done := make(chan result, 1)
	go func() {
		_, res, err := broadcastThrough(ctx, client, 31, payload, sinkSpec{Command: helper})
		done <- result{res, err}
	}()
	for {
		if _, err := os.Stat(filepath.Join(dir, "spliced")); err == nil {
			break
		}
		select {
		case r := <-done:
			t.Fatalf("session ended before the command held its input: %+v", r)
		case <-ctx.Done():
			t.Fatal("the command never held its input")
		case <-time.After(10 * time.Millisecond):
		}
	}
	for i := range 3 {
		other := make([]byte, 2<<20)
		iolimit.NewPattern(int64(len(other)), uint64(100+i)).Read(other)
		sid := core.SessionID(32 + i)
		if err := runSessionThrough(ctx, client, sid, other, filepath.Join(dir, fmt.Sprint("churn", i))); err != nil {
			t.Fatalf("session %d: %v", sid, err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "go"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.res.Err != "" {
		t.Fatalf("agent result: %s", r.res.Err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "out"))
	if err != nil {
		t.Fatal(err)
	}
	if i := firstDiff(got, payload); i >= 0 {
		t.Fatalf("the command received %d bytes, want %d; first difference at byte %d", len(got), len(payload), i)
	}
}

// firstDiff returns the first offset at which a and b differ, or -1.
func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// execTestAgent re-executes the test binary as an agent with the given
// standard error and returns its pid and a channel that yields its exit
// error. The agent's environment is the test's, without GOGC, plus env.
// The agent is killed when the test ends.
func execTestAgent(t *testing.T, stderr *os.File, env ...string) (int, <-chan error) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "GOGC=") {
			cmd.Env = append(cmd.Env, kv)
		}
	}
	cmd.Env = append(cmd.Env, asAgentEnv+"=1")
	cmd.Env = append(cmd.Env, env...)
	cmd.Stderr = stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() {
		exited <- cmd.Wait()
		close(exited) // the cleanup's receive returns once the test took the error
	}()
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		<-exited
	})
	return cmd.Process.Pid, exited
}

// readAgentAddr reads an agent's banner from its standard error and returns
// the control address it announces.
func readAgentAddr(t *testing.T, stderr *bufio.Reader) string {
	t.Helper()
	banner, err := stderr.ReadString('\n')
	_, rest, ok := strings.Cut(banner, "control on ")
	addr, _, _ := strings.Cut(rest, ",")
	if err != nil || !ok {
		t.Fatalf("agent banner %q: %v", banner, err)
	}
	return addr
}

// spawnAgentAddr re-executes the test binary as an agent, with env added to
// its environment, and returns its control address. Its standard error is
// drained until the test ends.
func spawnAgentAddr(t *testing.T, env ...string) string {
	t.Helper()
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	execTestAgent(t, pw, env...)
	pw.Close()
	t.Cleanup(func() { pr.Close() })
	br := bufio.NewReader(pr)
	addr := readAgentAddr(t, br)
	go func() { _, _ = io.Copy(io.Discard, br) }()
	return addr
}

// agentStatus runs `kascade status` against addr and decodes its output.
func agentStatus(t *testing.T, addr string) control.StatsReply {
	t.Helper()
	var out bytes.Buffer
	if err := runStatus(addr, &out); err != nil {
		t.Fatal(err)
	}
	var st control.StatsReply
	if err := json.Unmarshal(out.Bytes(), &st); err != nil {
		t.Fatalf("kascade status printed %q: %v", out.String(), err)
	}
	return st
}

// TestAgentPacesGCToItsWindow: an agent process paces its collector at
// agentGCPercent unless its environment sets GOGC. After relaying a bulk
// broadcast with the default 16 MiB replay window, its heap goal is the
// live heap plus a quarter, not plus all of it. The GC roots (stacks and
// globals) add a quarter of themselves, well inside the 1 MiB allowed.
func TestAgentPacesGCToItsWindow(t *testing.T) {
	addr := spawnAgentAddr(t)
	client, err := control.Dial(addr, 5*time.Second, control.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	relayThrough(t, client, 64<<20)

	m := agentStatus(t, addr).Memory
	if m.GCPercent != agentGCPercent {
		t.Fatalf("agent reports GOGC %d, want %d", m.GCPercent, agentGCPercent)
	}
	if m.GCCycles == 0 || m.HeapLive < core.DefaultWindowChunks*core.DefaultChunkSize/2 {
		t.Fatalf("after the broadcast: %+v, want collections and a live window", m)
	}
	if limit := m.HeapLive + m.HeapLive/4 + 1<<20; m.HeapGoal > limit {
		t.Fatalf("heap goal %d B for %d B live, want at most %d", m.HeapGoal, m.HeapLive, limit)
	}

	if m := agentStatus(t, spawnAgentAddr(t, "GOGC=100")).Memory; m.GCPercent != 100 {
		t.Fatalf("agent started with GOGC=100 reports GOGC %d", m.GCPercent)
	}
}

// relayThrough broadcasts size bytes with the default protocol options
// down a three-node chain whose middle node, the relay, is the agent
// behind client. The sender and the tail run in the test.
func relayThrough(t *testing.T, client *control.Client, size int64) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var opts core.Options
	const sid = 3
	rep, err := client.Prepare(ctx, control.PrepareRequest{Session: sid, Reservation: opts.PoolReservation()})
	if err != nil {
		t.Fatal(err)
	}
	var es [2]*core.Engine
	for i := range es {
		if es[i], err = core.NewSessionEngine(transport.TCP{}, "127.0.0.1:0", opts); err != nil {
			t.Fatal(err)
		}
		defer es[i].Close()
	}
	peers := []core.Peer{
		{Name: "sender", Addr: es[0].Addr()},
		{Name: "relay", Addr: rep.DataAddr},
		{Name: "tail", Addr: es[1].Addr()},
	}
	plan := core.Plan{Peers: peers, Opts: opts, Session: sid}
	pending, err := client.Start(control.StartRequest{Session: sid, Index: 1, Peers: peers, Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	tail, err := core.NewNode(core.NodeConfig{Index: 2, Plan: plan, Network: transport.TCP{}, Engine: es[1]})
	if err != nil {
		t.Fatal(err)
	}
	tailDone := make(chan error, 1)
	go func() {
		_, err := tail.Run(ctx)
		tailDone <- err
	}()
	sender, err := core.NewNode(core.NodeConfig{
		Index: 0, Plan: plan, Network: transport.TCP{}, Engine: es[0],
		Input: iolimit.NewPattern(size, 7),
	})
	if err != nil {
		t.Fatal(err)
	}
	report, err := sender.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if report.TotalBytes != uint64(size) || len(report.Failures) != 0 {
		t.Fatalf("broadcast report: %v", report)
	}
	res, err := pending.Wait(ctx)
	if err != nil || res.Err != "" || res.Bytes != uint64(size) {
		t.Fatalf("relay result %+v: %v", res, err)
	}
	if err := <-tailDone; err != nil {
		t.Fatalf("tail: %v", err)
	}
}

// TestAgentExitsWithoutStderrReader: an agent whose standard error is a
// pipe exits with status 1 once the pipe's last reader is gone, without
// waiting for a write there.
func TestAgentExitsWithoutStderrReader(t *testing.T) {
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	_, exited := execTestAgent(t, pw)
	pw.Close()
	banner, err := bufio.NewReader(pr).ReadString('\n')
	if err != nil || !strings.Contains(banner, "control on") {
		pr.Close()
		t.Fatalf("agent banner %q: %v", banner, err)
	}
	pr.Close()
	select {
	case err := <-exited:
		var exitErr *exec.ExitError
		if !errors.As(err, &exitErr) || exitErr.ExitCode() != 1 {
			t.Fatalf("agent exit: %v, want status 1", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("agent still running 5 s after its stderr reader went away")
	}
}

// processGone reports whether pid has exited: no such process, or a zombie
// its new parent has not reaped yet.
func processGone(pid int) bool {
	if err := syscall.Kill(pid, 0); err == syscall.ESRCH {
		return true
	}
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return true
	}
	i := bytes.LastIndexByte(stat, ')') // the state follows the command name
	return i >= 0 && i+2 < len(stat) && stat[i+2] == 'Z'
}

// TestAgentMidSessionExitsWithoutStderrReader: an agent in the middle of an
// -O session exits once its stderr reader is gone, and its sink command
// sees the end of its input and exits too. Neither outlives the reader by
// more than 5 s.
func TestAgentMidSessionExitsWithoutStderrReader(t *testing.T) {
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	agentPid, exited := execTestAgent(t, pw)
	pw.Close()
	addr := readAgentAddr(t, bufio.NewReader(pr))
	client, err := control.Dial(addr, 5*time.Second, control.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := testProtoOptions()
	const sid = 5
	rep, err := client.Prepare(ctx, control.PrepareRequest{Session: sid, Reservation: opts.PoolReservation()})
	if err != nil {
		t.Fatal(err)
	}
	rootEngine, err := core.NewSessionEngine(transport.TCP{}, "127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer rootEngine.Close()
	peers := []core.Peer{{Name: "sender", Addr: rootEngine.Addr()}, {Name: "agent", Addr: rep.DataAddr}}
	pidFile := filepath.Join(t.TempDir(), "sink.pid")
	if _, err := client.Start(control.StartRequest{
		Session: sid, Index: 1, Peers: peers, Opts: opts,
		Output: sinkSpec{Command: "echo $$ > " + pidFile + "; exec cat > /dev/null"},
	}); err != nil {
		t.Fatal(err)
	}

	// A streamed source that stalls after 4 MiB keeps the session open.
	in, feed := io.Pipe()
	defer feed.Close()
	node, err := core.NewNode(core.NodeConfig{
		Index: 0, Plan: core.Plan{Peers: peers, Opts: opts, Session: sid},
		Network: transport.TCP{}, Engine: rootEngine, Input: in,
	})
	if err != nil {
		t.Fatal(err)
	}
	senderDone := make(chan struct{})
	go func() {
		defer close(senderDone)
		_, _ = node.Run(ctx)
	}()
	defer func() {
		cancel()
		feed.CloseWithError(errors.New("test over"))
		<-senderDone
	}()
	payload := make([]byte, 4<<20)
	iolimit.NewPattern(int64(len(payload)), 11).Read(payload)
	if _, err := feed.Write(payload); err != nil {
		t.Fatal(err)
	}
	var sinkPid int
	for deadline := time.Now().Add(5 * time.Second); sinkPid == 0; {
		if b, err := os.ReadFile(pidFile); err == nil {
			sinkPid, _ = strconv.Atoi(strings.TrimSpace(string(b)))
		}
		if sinkPid == 0 && time.Now().After(deadline) {
			t.Fatal("the sink command never started")
		}
		time.Sleep(10 * time.Millisecond)
	}

	pr.Close()
	deadline := time.Now().Add(5 * time.Second)
	select {
	case err := <-exited:
		var exitErr *exec.ExitError
		if !errors.As(err, &exitErr) || exitErr.ExitCode() != 1 {
			t.Fatalf("agent exit: %v, want status 1", err)
		}
	case <-time.After(time.Until(deadline)):
		t.Fatal("agent still running 5 s after its stderr reader went away")
	}
	for !processGone(agentPid) || !processGone(sinkPid) {
		if time.Now().After(deadline) {
			t.Fatalf("5 s after the stderr reader went away: agent %d gone %v, sink command %d gone %v",
				agentPid, processGone(agentPid), sinkPid, processGone(sinkPid))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAgentStaysUpWithStderrNotAPipe: standard error that is not a pipe
// (here /dev/null) is not watched, so the agent keeps serving.
func TestAgentStaysUpWithStderrNotAPipe(t *testing.T) {
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	_, exited := execTestAgent(t, null)
	select {
	case err := <-exited:
		t.Fatalf("agent with stderr on %s exited: %v", os.DevNull, err)
	case <-time.After(time.Second):
	}
}

// TestSourceTruncatedMidBroadcast: the sender's source file shrinks while
// its pages are being sent from the mapping, with the agents' -O commands
// holding the chain back. The sender exits with the source's read error,
// every agent is abandoned through QUIT, no receiver is named failed, and
// no process dies of a signal.
func TestSourceTruncatedMidBroadcast(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "src")
	payload := make([]byte, 64<<20)
	iolimit.NewPattern(int64(len(payload)), 43).Read(payload)
	if err := os.WriteFile(src, payload, 0o644); err != nil {
		t.Fatal(err)
	}

	var agents []string
	var pids []int
	for i := range 3 {
		log, err := os.Create(filepath.Join(dir, fmt.Sprint("agent", i)))
		if err != nil {
			t.Fatal(err)
		}
		defer log.Close()
		pid, _ := execTestAgent(t, log)
		pids = append(pids, pid)
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
			b, _ := os.ReadFile(log.Name())
			if _, rest, ok := strings.Cut(string(b), "control on "); ok {
				addr, _, _ := strings.Cut(rest, ",")
				agents = append(agents, addr)
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("agent %d never printed its banner", i)
			}
		}
	}

	// Each sink takes 1 MiB, then holds its input until "go" exists.
	held := filepath.Join(dir, "held")
	sink := fmt.Sprintf("head -c 1048576 > /dev/null; touch '%s'$$; while [ ! -e '%s/go' ]; do sleep 0.01; done; exec cat > /dev/null", held, dir)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	root := exec.CommandContext(ctx, os.Args[0], "-N", strings.Join(agents, ","), "-i", src, "-O", sink)
	root.Env = append(os.Environ(), asRootEnv+"=1")
	var stdout, stderr bytes.Buffer
	root.Stdout, root.Stderr = &stdout, &stderr
	if err := root.Start(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if m, _ := filepath.Glob(held + "*"); len(m) == len(agents) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the sinks never started holding their input")
		}
	}
	time.Sleep(200 * time.Millisecond) // the sender stalls on the held chain
	if err := os.Truncate(src, 3<<20+1000); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "go"), nil, 0o644); err != nil {
		t.Fatal(err)
	}

	err := root.Wait()
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) || exitErr.ExitCode() != 1 {
		t.Fatalf("sender exit: %v, want status 1\nstderr:\n%s", err, stderr.String())
	}
	out := stderr.String()
	if !strings.Contains(out, "kascade: reading source file at") {
		t.Errorf("sender's error does not name its source:\n%s", out)
	}
	if n := strings.Count(out, "upstream instructed abandon"); n != len(agents) {
		t.Errorf("%d of %d agents abandoned through QUIT:\n%s", n, len(agents), out)
	}
	if !strings.Contains(stdout.String(), "no failures") {
		t.Errorf("a receiver was named failed: %s", stdout.String())
	}
	for i, pid := range pids {
		if processGone(pid) {
			t.Errorf("agent %d died", i)
		}
	}
}
