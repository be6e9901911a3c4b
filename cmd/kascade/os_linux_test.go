package main

import (
	"bufio"
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"kascade/internal/iolimit"
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

// execTestAgent re-executes the test binary as an agent with the given
// standard error and returns a channel that yields its exit error. The
// agent is killed when the test ends.
func execTestAgent(t *testing.T, stderr *os.File) <-chan error {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), asAgentEnv+"=1")
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
	return exited
}

// TestAgentExitsWithoutStderrReader: an agent whose standard error is a
// pipe exits with status 1 once the pipe's last reader is gone, without
// waiting for a write there.
func TestAgentExitsWithoutStderrReader(t *testing.T) {
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	exited := execTestAgent(t, pw)
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

// TestAgentStaysUpWithStderrNotAPipe: standard error that is not a pipe
// (here /dev/null) is not watched, so the agent keeps serving.
func TestAgentStaysUpWithStderrNotAPipe(t *testing.T) {
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	exited := execTestAgent(t, null)
	select {
	case err := <-exited:
		t.Fatalf("agent with stderr on %s exited: %v", os.DevNull, err)
	case <-time.After(time.Second):
	}
}
