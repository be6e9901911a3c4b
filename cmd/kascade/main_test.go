package main

import (
	"bytes"
	"crypto/sha256"
	"os"
	"path/filepath"
	"testing"

	"kascade/internal/core"
	"kascade/internal/iolimit"
)

// asAgentEnv, when set in its environment, turns the test binary into a
// `kascade agent` on loopback ports, so tests can run a real agent process.
// asRootEnv turns it into the sender, `kascade` with the binary's
// arguments.
const (
	asAgentEnv = "KASCADE_TEST_AS_AGENT"
	asRootEnv  = "KASCADE_TEST_AS_ROOT"
)

func TestMain(m *testing.M) {
	if os.Getenv(asAgentEnv) == "1" {
		agentMain([]string{"-listen", "127.0.0.1:0", "-data", "127.0.0.1:0"})
		return
	}
	if os.Getenv(asRootEnv) == "1" {
		rootMain(os.Args[1:])
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestLocalBroadcastEndToEnd exercises the complete CLI path — in-process
// agents over loopback TCP, control protocol, plan assembly, the real
// engine, per-node file sinks — exactly as `kascade -local 4 -i f -o out`.
func TestLocalBroadcastEndToEnd(t *testing.T) {
	dir := t.TempDir()
	input := filepath.Join(dir, "payload.bin")
	payload := make([]byte, 4<<20)
	iolimit.NewPattern(int64(len(payload)), 5).Read(payload)
	if err := os.WriteFile(input, payload, 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out")

	report, err := runRoot(rootOptions{
		local:    4,
		input:    input,
		outPath:  out,
		chunkKiB: 256,
		window:   16,
		listen:   "127.0.0.1:0",
		quiet:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.TotalBytes != uint64(len(payload)) {
		t.Fatalf("report bytes %d, want %d", report.TotalBytes, len(payload))
	}
	if len(report.Failures) != 0 {
		t.Fatalf("unexpected failures: %v", report)
	}
	matches, err := filepath.Glob(out + "-*")
	if err != nil || len(matches) != 4 {
		t.Fatalf("output files: %v (%v)", matches, err)
	}
	want := sha256.Sum256(payload)
	for _, m := range matches {
		got, err := os.ReadFile(m)
		if err != nil {
			t.Fatal(err)
		}
		if sha256.Sum256(got) != want {
			t.Errorf("%s corrupted (%d bytes)", m, len(got))
		}
	}
}

// TestLocalBroadcastFromStdinStream checks the unknown-length stream path
// (the dd|gzip use case) through the CLI plumbing, with every option at the
// command line's default: `kascade -local 3 -o out < stream`.
func TestLocalBroadcastFromStdinStream(t *testing.T) {
	dir := t.TempDir()
	payload := make([]byte, 1<<20+123)
	iolimit.NewPattern(int64(len(payload)), 9).Read(payload)

	// Substitute stdin with a pipe carrying the payload.
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	oldStdin := os.Stdin
	os.Stdin = r
	defer func() { os.Stdin = oldStdin }()
	go func() {
		w.Write(payload)
		w.Close()
	}()

	out := filepath.Join(dir, "streamed")
	o, err := parseRootFlags([]string{"-local", "3", "-o", out, "-q"})
	if err != nil {
		t.Fatal(err)
	}
	report, err := runRoot(o)
	if err != nil {
		t.Fatal(err)
	}
	if report.TotalBytes != uint64(len(payload)) {
		t.Fatalf("streamed bytes %d, want %d", report.TotalBytes, len(payload))
	}
	matches, _ := filepath.Glob(out + "-*")
	if len(matches) != 3 {
		t.Fatalf("output files: %v", matches)
	}
	for _, m := range matches {
		got, _ := os.ReadFile(m)
		if !bytes.Equal(got, payload) {
			t.Errorf("%s corrupted", m)
		}
	}
}

// TestRootFlagDefaultsMatchCoreOptions pins the CLI's -chunk and -window
// defaults to the engine's, so the two cannot drift apart.
func TestRootFlagDefaultsMatchCoreOptions(t *testing.T) {
	o, _ := parseRootFlags(nil) // the error only says no receivers were named
	got := o.protocolOptions()
	if got.ChunkSize != core.DefaultChunkSize || got.WindowChunks != core.DefaultWindowChunks {
		t.Fatalf("CLI defaults: %d-byte chunks × %d, core defaults: %d × %d",
			got.ChunkSize, got.WindowChunks, core.DefaultChunkSize, core.DefaultWindowChunks)
	}
}

func TestSinkSpecValidation(t *testing.T) {
	if _, _, err := openSink(sinkSpec{Path: "a", Command: "b"}, 0); err == nil {
		t.Fatal("conflicting sink spec accepted")
	}
	w, closeFn, err := openSink(sinkSpec{}, 0)
	if err != nil || w == nil {
		t.Fatalf("default sink: %v", err)
	}
	closeFn()
}
