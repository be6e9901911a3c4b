package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sync"
	"testing"
	"time"

	"kascade/internal/transport"
)

// tcpWirePair returns a wire over the accepting end of a fresh loopback TCP
// connection, and the dialling end.
func tcpWirePair(t *testing.T) (*wire, transport.Conn) {
	t.Helper()
	l, err := transport.TCP{}.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c, err := transport.TCP{}.Dial(l.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	s, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close(); s.Close() })
	return newWire(s, SystemClock()), c
}

// dataFrame is the DATA frame that carries payload.
func dataFrame(payload []byte) []byte {
	f := make([]byte, dataFrameHeader, dataFrameHeader+len(payload))
	f[0] = byte(MsgData)
	binary.BigEndian.PutUint32(f[1:], uint32(len(payload)))
	return append(f, payload...)
}

// readDataFrame reads the next frame from w, which must be DATA.
func readDataFrame(w *wire, pool *chunkPool, stage *sinkStage) (*chunk, error) {
	typ, err := w.readType()
	if err != nil {
		return nil, err
	}
	if typ != MsgData {
		return nil, &errProtocol{want: MsgData, got: typ}
	}
	return w.readData(pool, stage)
}

// TestSinkStageDropsWhatNeverReachedTheSink: the sink receives exactly the
// chunks delivered to it, by reference. Neither a payload cut off by its
// connection nor a whole one that was read but never delivered (its Append
// failed) leaves bytes behind for the next chunk.
func TestSinkStageDropsWhatNeverReachedTheSink(t *testing.T) {
	const size = 64 << 10
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	stage := newSinkStage(pw, size)
	if stage == nil {
		t.Fatal("an os.Pipe sink got no stage")
	}
	defer stage.close()
	got := make(chan []byte, 1)
	go func() {
		b, _ := io.ReadAll(pr)
		got <- b
	}()
	pool := newChunkPool(size, 4)

	w, c := tcpWirePair(t)
	cut := dataFrame(testPayload(size, 1))
	if _, err := c.Write(cut[:len(cut)/2]); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, err := readDataFrame(w, pool, stage); err == nil {
		t.Fatal("a payload cut off by its connection was read whole")
	}

	w, c = tcpWirePair(t)
	want := testPayload(size, 3)
	if _, err := c.Write(append(dataFrame(testPayload(size, 2)), dataFrame(want)...)); err != nil {
		t.Fatal(err)
	}
	undelivered, err := readDataFrame(w, pool, stage)
	if err != nil {
		t.Fatal(err)
	}
	undelivered.release()
	ck, err := readDataFrame(w, pool, stage)
	if err != nil {
		t.Fatal(err)
	}
	if err := stage.deliver(ck.bytes()); err != nil {
		t.Fatal(err)
	}
	ck.release()
	if stage.moved == 0 {
		t.Error("no byte reached the sink by reference")
	}
	pw.Close()
	if b := <-got; !bytes.Equal(b, want) {
		t.Fatalf("sink received %d bytes, want exactly the %d delivered", len(b), len(want))
	}
}

// TestSinkStageOnlyForPipeReceivers: a receiver stages for a non-blocking
// pipe sink; a file sink, a late joiner's pipe sink and the sender do not.
func TestSinkStageOnlyForPipeReceivers(t *testing.T) {
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	defer pw.Close()
	f, err := os.Create(t.TempDir() + "/sink")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	fab := transport.NewFabric(1 << 20)
	peers := []Peer{{Name: "a", Addr: "a:7000"}, {Name: "b", Addr: "b:7000"}}
	lst, err := fab.Host("b").Listen("b:7000")
	if err != nil {
		t.Fatal(err)
	}
	defer lst.Close()
	for _, tc := range []struct {
		name  string
		index int
		sink  io.Writer
		input io.Reader
		stage bool
	}{
		{"receiver, pipe", 1, pw, nil, true},
		{"receiver, file", 1, f, nil, false},
		{"sender", 0, pw, bytes.NewReader(nil), false},
	} {
		n, err := NewNode(NodeConfig{
			Index: tc.index, Plan: Plan{Peers: peers, Opts: testOpts()},
			Network: fab.Host("b"), Listener: lst, Sink: tc.sink, Input: tc.input,
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if (n.stage != nil) != tc.stage {
			t.Errorf("%s: staged %v, want %v", tc.name, n.stage != nil, tc.stage)
		}
	}
	if n := joinTestNode(t, fab, "srv:7000", 0, pw); n.stage != nil {
		t.Error("a late joiner stages for its pipe sink; its catch-up serializer must copy")
	}
}

// TestPipeSinksUnderConcurrentSessions: eight broadcasts at once over
// loopback TCP, in 4 KiB chunks through a two-chunk window so buffers
// recycle fast, each receiver feeding a pipe that its reader starts to
// drain late. Every reader gets its payload intact.
func TestPipeSinksUnderConcurrentSessions(t *testing.T) {
	const sessions, nodes = 8, 3
	opts := testOpts()
	opts.WindowChunks = 2
	opts.WriteStallTimeout = time.Second
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	errs := make(chan error, sessions*nodes)
	for s := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			data := testPayload(1<<20, int64(40+s))
			peers := make([]Peer, nodes)
			sinks := make([]io.Writer, nodes)
			var readers sync.WaitGroup
			for i := range peers {
				peers[i] = Peer{Name: fmt.Sprintf("s%dn%d", s, i), Addr: "127.0.0.1:0"}
				if i == 0 {
					continue
				}
				pr, pw, err := os.Pipe()
				if err != nil {
					errs <- err
					return
				}
				defer pw.Close()
				sinks[i] = pw
				readers.Add(1)
				go func() {
					defer readers.Done()
					defer pr.Close()
					time.Sleep(100 * time.Millisecond)
					got, err := io.ReadAll(pr)
					if err == nil && !bytes.Equal(got, data) {
						err = fmt.Errorf("session %d node %d: sink read %d bytes, not the %d sent", s, i, len(got), len(data))
					}
					if err != nil {
						errs <- err
					}
				}()
			}
			res, err := RunSession(ctx, SessionConfig{
				Peers:      peers,
				Opts:       opts,
				NetworkFor: func(int) transport.Network { return transport.TCP{} },
				SinkFor:    func(i int) io.Writer { return sinks[i] },
				InputFile:  bytes.NewReader(data),
				InputSize:  int64(len(data)),
			})
			for _, w := range sinks[1:] {
				w.(*os.File).Close()
			}
			readers.Wait()
			if err == nil && len(res.Report.Failures) != 0 {
				err = fmt.Errorf("session %d: failures %v", s, res.Report)
			}
			if err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
