package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"syscall"
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
// Only a receiver that can never have a successor is a leaf: not a relay,
// and not a leaf of a re-ranking tree, which a new view can make a parent.
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
	peers := []Peer{{Name: "a", Addr: "a:7000"}, {Name: "b", Addr: "b:7000"}, {Name: "c", Addr: "c:7000"}, {Name: "d", Addr: "d:7000"}}
	lst, err := fab.Host("b").Listen("b:7000")
	if err != nil {
		t.Fatal(err)
	}
	defer lst.Close()
	rerank := testOpts()
	rerank.Rerank = true
	for _, tc := range []struct {
		name        string
		index       int
		topology    string
		opts        Options
		sink        io.Writer
		input       io.Reader
		stage, leaf bool
	}{
		{"chain relay, pipe", 1, "", testOpts(), pw, nil, true, false},
		{"chain tail, pipe", 3, "", testOpts(), pw, nil, true, true},
		{"chain tail, file", 3, "", testOpts(), f, nil, false, true},
		{"tree:2 relay, pipe", 1, TopologyTree(2), testOpts(), pw, nil, true, false},
		{"tree:2 leaf, pipe", 2, TopologyTree(2), testOpts(), pw, nil, true, true},
		{"re-ranking tree:2 leaf, pipe", 2, TopologyTree(2), rerank, pw, nil, true, false},
		{"sender", 0, "", testOpts(), pw, bytes.NewReader(nil), false, false},
	} {
		n, err := NewNode(NodeConfig{
			Index: tc.index, Plan: Plan{Peers: peers, Opts: tc.opts, Topology: tc.topology},
			Network: fab.Host("b"), Listener: lst, Sink: tc.sink, Input: tc.input,
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if (n.stage != nil) != tc.stage || n.leaf != tc.leaf {
			t.Errorf("%s: staged %v, leaf %v; want %v, %v", tc.name, n.stage != nil, n.leaf, tc.stage, tc.leaf)
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

// TestPipeSinksOverTCP: broadcasts over loopback TCP into pipe sinks, in
// chunks that are not page multiples and through sink pipes down to one
// page. Every sink gets its payload bit-exact. A leaf (a chain's tail or a
// tree:2 leaf) moves every payload byte by reference and never takes a
// pool buffer. A relay whose successor is killed mid-broadcast replays its
// window to the next node, which still gets every byte once.
func TestPipeSinksOverTCP(t *testing.T) {
	for _, tc := range []struct {
		name     string
		topology string
		nodes    int
		chunk    int
		sinkPipe int // F_SETPIPE_SZ for every sink; 0 keeps the default
		kill     int // receiver killed mid-broadcast; 0 kills none
	}{
		{name: "chain tail", nodes: 3, chunk: 64 << 10},
		{name: "chain tail, odd chunks", nodes: 3, chunk: 100_003},
		{name: "chain tail, odd chunks, one-page sink pipe", nodes: 3, chunk: 4<<10 + 17, sinkPipe: 4 << 10},
		{name: "tree:2 leaves", topology: TopologyTree(2), nodes: 4, chunk: 64<<10 - 1},
		{name: "tree:2 leaves, one-page sink pipe", topology: TopologyTree(2), nodes: 4, chunk: 64 << 10, sinkPipe: 4 << 10},
		{name: "relay replays past a killed successor", nodes: 4, chunk: 64 << 10, kill: 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := testPayload(12<<20+4321, int64(tc.chunk))
			opts := testOpts()
			opts.ChunkSize = tc.chunk
			opts.WindowChunks = 32 << 20 / tc.chunk // holds whatever the killed node and its sockets had in flight
			opts.WriteStallTimeout = time.Second
			peers := make([]Peer, tc.nodes)
			sinks := make([]io.Writer, tc.nodes)
			got := make([]chan []byte, tc.nodes)
			for i := range peers {
				peers[i] = Peer{Name: fmt.Sprintf("n%d", i), Addr: "127.0.0.1:0"}
				if i == 0 {
					continue
				}
				pr, pw, err := os.Pipe()
				if err != nil {
					t.Fatal(err)
				}
				defer pw.Close()
				if tc.sinkPipe > 0 {
					rc, err := pw.SyscallConn() // not Fd, which makes the pipe blocking
					if err != nil {
						t.Fatal(err)
					}
					var errno syscall.Errno
					if err := rc.Control(func(fd uintptr) {
						_, _, errno = syscall.Syscall(syscall.SYS_FCNTL, fd, fSetPipeSize, uintptr(tc.sinkPipe))
					}); err != nil || errno != 0 {
						t.Fatal(err, errno)
					}
				}
				sinks[i] = pw
				got[i] = make(chan []byte, 1)
				go func() {
					defer pr.Close()
					b, _ := io.ReadAll(pr)
					got[i] <- b
				}()
			}
			victim := &killableTCP{}
			var mu sync.Mutex
			var gapFetches, replays int
			s, err := StartSession(context.Background(), SessionConfig{
				Peers:    peers,
				Opts:     opts,
				Topology: tc.topology,
				NetworkFor: func(i int) transport.Network {
					if tc.kill > 0 && i == tc.kill {
						return victim
					}
					return transport.TCP{}
				},
				SinkFor:   func(i int) io.Writer { return sinks[i] },
				InputFile: bytes.NewReader(data),
				InputSize: int64(len(data)),
				Trace: func(ev TraceEvent) {
					mu.Lock()
					defer mu.Unlock()
					switch {
					case ev.Kind == TraceGapFetchStart:
						gapFetches++
					case ev.Kind == TraceUpstreamAccepted && tc.kill > 0 && ev.Node == tc.kill+1 && ev.Peer == tc.kill-1:
						replays++
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if tc.kill > 0 {
				for s.Nodes[tc.kill].BytesReceived() < 2<<20 {
					time.Sleep(time.Millisecond)
				}
				victim.kill()
			}
			res, err := s.Wait()
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i < tc.nodes; i++ {
				sinks[i].(*os.File).Close()
			}
			for i := 1; i < tc.nodes; i++ {
				b := <-got[i]
				n := s.Nodes[i]
				if i == tc.kill {
					if !res.Report.Failed(i) {
						t.Errorf("killed node %d not reported: %v", i, res.Report)
					}
					continue
				}
				if !bytes.Equal(b, data) {
					t.Errorf("node %d: sink got %d bytes, not the %d sent", i, len(b), len(data))
				}
				if n.stage == nil {
					t.Fatalf("node %d does not stage for its pipe sink", i)
				}
				if n.leaf && n.stage.moved != uint64(len(data)) {
					t.Errorf("leaf %d moved %d of %d bytes by reference", i, n.stage.moved, len(data))
				}
				if d := n.pool.drawn.Load(); n.leaf && d != 0 {
					t.Errorf("leaf %d took %d pool buffers, want none", i, d)
				}
			}
			if tc.kill == 0 && len(res.Report.Failures) != 0 {
				t.Errorf("failures: %v", res.Report)
			}
			if tc.kill > 0 && replays == 0 {
				t.Errorf("node %d never took node %d as its upstream", tc.kill+1, tc.kill-1)
			}
			if gapFetches != 0 {
				t.Errorf("%d gap fetches from node 0; the relay's window should have served the replay", gapFetches)
			}
		})
	}
}

// killableTCP is loopback TCP for one node whose kill closes its listener
// and every connection it has, and refuses its later dials: a crashed
// process, as its peers see it.
type killableTCP struct {
	mu    sync.Mutex
	dead  bool
	close []io.Closer
}

func (k *killableTCP) track(c io.Closer) bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.dead {
		c.Close()
		return false
	}
	k.close = append(k.close, c)
	return true
}

func (k *killableTCP) kill() {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.dead = true
	// Connections first: a node that sees its listener fail while a
	// connection is still open sends QUIT on it, which a crash would not.
	for i := len(k.close) - 1; i >= 0; i-- {
		k.close[i].Close()
	}
}

func (k *killableTCP) Listen(addr string) (transport.Listener, error) {
	l, err := transport.TCP{}.Listen(addr)
	if err != nil {
		return nil, err
	}
	k.track(l)
	return killableListener{l, k}, nil
}

func (k *killableTCP) Dial(addr string, timeout time.Duration) (transport.Conn, error) {
	c, err := transport.TCP{}.Dial(addr, timeout)
	if err == nil && !k.track(c) {
		err = errors.New("killed")
	}
	return c, err
}

type killableListener struct {
	transport.Listener
	k *killableTCP
}

func (l killableListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil && !l.k.track(c) {
		err = errors.New("killed")
	}
	return c, err
}
