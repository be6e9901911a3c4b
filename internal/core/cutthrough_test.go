package core

import (
	"bytes"
	"context"
	"io"
	"runtime"
	"sync"
	"testing"
)

// waitReader blocks its first Read until the channel closes, then reports
// EOF so an io.MultiReader moves on to the next part of the payload.
type waitReader <-chan struct{}

func (w waitReader) Read([]byte) (int, error) {
	<-w
	return 0, io.EOF
}

// TestChainRelayForwardsCutThrough pins the chain relay's handoff: a relay
// whose forwarder is idle sends each chunk on before it reads the next
// one, instead of ingesting its upstream's whole batch first.
//
// On one processor the schedule is deterministic. The source releases
// chunk 0 alone and holds the rest until the tail has ingested it, so
// every link is up and every forwarder is parked when the other 15 chunks
// arrive at node 1 in one batch. A store-and-forward relay ingests all 15
// before the tail sees its second chunk; a cut-through one ingests one or
// two.
func TestChainRelayForwardsCutThrough(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const (
		nodes  = 4
		chunk  = 64 << 10
		chunks = 16
		tail   = nodes - 1
	)
	env := newTestEnv(nodes, 1<<20)
	data := testPayload(chunks*chunk, 27)
	tailHasFirst := make(chan struct{})

	var (
		mu          sync.Mutex
		relayAhead  int  // node 1's chunks after chunk 0, counted until...
		tailHasNext bool // ...the tail ingests its second chunk
	)
	cfg := env.config(data, true)
	cfg.Opts = Options{ChunkSize: chunk, WindowChunks: 32}
	cfg.Input = io.MultiReader(
		bytes.NewReader(data[:chunk]), waitReader(tailHasFirst), bytes.NewReader(data[chunk:]))
	cfg.Trace = func(ev TraceEvent) {
		if ev.Kind != TraceChunk {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		switch {
		case ev.Node == tail && ev.Offset == chunk:
			close(tailHasFirst)
		case ev.Node == tail && ev.Offset == 2*chunk:
			tailHasNext = true
		case ev.Node == 1 && ev.Offset > chunk && !tailHasNext:
			relayAhead++
		}
	}

	res, err := RunSession(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Report.Failures) != 0 || res.Report.TotalBytes != uint64(len(data)) {
		t.Fatalf("broadcast not clean: %+v", res.Report)
	}
	for i := 1; i < nodes; i++ {
		checkSink(t, env, i, data)
	}
	mu.Lock()
	defer mu.Unlock()
	if !tailHasNext {
		t.Fatal("tail never traced its second chunk")
	}
	t.Logf("node 1 ingested %d chunks before the tail's second", relayAhead)
	if relayAhead > 4 {
		t.Fatalf("node 1 ingested %d of %d chunks before the tail got its second: relays forward store-and-forward",
			relayAhead, chunks-1)
	}
}
