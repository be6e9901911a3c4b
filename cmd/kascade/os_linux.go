package main

import (
	"os"
	"syscall"
	"unsafe"
)

// fSetPipeSize is fcntl's F_SETPIPE_SZ (F_LINUX_SPECIFIC_BASE + 7, the same
// on every Linux architecture).
const fSetPipeSize = 1031

// setPipeSize asks the kernel to give the pipe behind f a capacity of n
// bytes, best effort: an unprivileged process may not exceed
// /proc/sys/fs/pipe-max-size, and a failed request leaves the pipe as it
// was. The fcntl goes through SyscallConn so f stays non-blocking, which
// Fd would undo.
func setPipeSize(f *os.File, n int) {
	rc, err := f.SyscallConn()
	if err != nil {
		return
	}
	_ = rc.Control(func(fd uintptr) {
		_, _, _ = syscall.Syscall(syscall.SYS_FCNTL, fd, fSetPipeSize, uintptr(n))
	})
}

// exitWithStderrReaders makes an agent whose standard error is a pipe exit
// as soon as the last reader of that pipe is gone, instead of at its next
// write there (which raises SIGPIPE anyway). A launcher that dies hard thus
// takes its agents, their ports and their sink shells with it. Standard
// error that is not a pipe is left alone.
func exitWithStderrReaders() {
	if st, err := os.Stderr.Stat(); err != nil || st.Mode()&os.ModeNamedPipe == 0 {
		return
	}
	go func() {
		// struct pollfd for fd 2 with no requested events: POLLERR is
		// always reported, and on a pipe's write end it means no reader
		// is left.
		const pollErr = 0x8
		pfd := struct {
			fd      int32
			events  int16
			revents int16
		}{fd: 2}
		for {
			_, _, errno := syscall.Syscall6(syscall.SYS_PPOLL, uintptr(unsafe.Pointer(&pfd)), 1, 0, 0, 0, 0)
			switch {
			case errno == syscall.EINTR:
				continue
			case errno != 0:
				return
			case pfd.revents&pollErr != 0:
				os.Exit(1)
			default:
				return // POLLNVAL: fd 2 is no longer open
			}
		}
	}()
}
