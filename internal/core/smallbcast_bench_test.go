package core

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"kascade/internal/transport"
)

// BenchmarkSmallBroadcast is the shape bench/'s small_latency_ms_p50 rows
// time on deep-chain and tree-crash: 1 MiB in 64 KiB chunks through 16
// nodes on a fresh NewFabric(1<<20) per broadcast. Set-up is a few dials
// per node; what the chain's p50-ms measures is how chunks are handed from
// hop to hop. A relay that forwards each chunk as it lands puts the first
// chunk at the tail after depth × one chunk-time; one that ingests its
// upstream's whole batch first puts it there after depth × 1 MiB.
// tail-first-ms, the median time from the call to node 15's first
// ingested chunk, separates the two; p50-ms minus tail-first-ms is the
// tail draining the rest of the payload plus the closing report ring.
func BenchmarkSmallBroadcast(b *testing.B) {
	for _, shape := range []struct{ name, topology string }{
		{"chain", TopologyChain},
		{"tree2", TopologyTree(2)},
	} {
		b.Run(shape.name+"/nodes=16", func(b *testing.B) {
			const nodes, size, chunk = 16, 1 << 20, 64 << 10
			peers := make([]Peer, nodes)
			for i := range peers {
				peers[i] = Peer{Name: fmt.Sprintf("n%d", i+1), Addr: fmt.Sprintf("n%d:7000", i+1)}
			}
			payload := testPayload(size, 23)
			walls := make([]time.Duration, 0, b.N)
			tailFirsts := make([]time.Duration, 0, b.N)
			var tailFirst atomic.Int64 // UnixNano of the tail's first chunk
			trace := func(ev TraceEvent) {
				if ev.Kind == TraceChunk && ev.Node == nodes-1 && ev.Offset == chunk {
					tailFirst.Store(ev.At.UnixNano())
				}
			}
			b.SetBytes(size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fabric := transport.NewFabric(1 << 20)
				start := time.Now()
				res, err := RunSession(context.Background(), SessionConfig{
					Peers:      peers,
					Opts:       Options{ChunkSize: chunk, WindowChunks: 32},
					Topology:   shape.topology,
					NetworkFor: func(i int) transport.Network { return fabric.Host(peers[i].Name) },
					SinkFor:    func(int) io.Writer { return io.Discard },
					InputFile:  bytes.NewReader(payload),
					InputSize:  size,
					Trace:      trace,
				})
				walls = append(walls, time.Since(start))
				tailFirsts = append(tailFirsts, time.Duration(tailFirst.Load()-start.UnixNano()))
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Report.Failures) != 0 || res.Report.TotalBytes != size {
					b.Fatalf("broadcast not clean: %+v", res.Report)
				}
			}
			b.StopTimer()
			b.ReportMetric(median(walls), "p50-ms")
			b.ReportMetric(median(tailFirsts), "tail-first-ms")
		})
	}
}

// median returns the middle of ds in milliseconds, sorting ds in place.
func median(ds []time.Duration) float64 {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return float64(ds[len(ds)/2]) / float64(time.Millisecond)
}
