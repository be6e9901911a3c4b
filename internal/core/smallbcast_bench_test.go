package core

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sort"
	"testing"
	"time"

	"kascade/internal/transport"
)

// BenchmarkSmallBroadcast is the shape bench/'s small_latency_ms_p50 rows
// time on deep-chain and tree-crash: 1 MiB in 64 KiB chunks through 16
// nodes on a fresh NewFabric(1<<20) per broadcast. At this size set-up
// (dials, rings, per-session state) is what a change can move; the reported
// p50 should differ between chain and tree2 the way depth 15 and depth 4 do.
func BenchmarkSmallBroadcast(b *testing.B) {
	for _, shape := range []struct{ name, topology string }{
		{"chain", TopologyChain},
		{"tree2", TopologyTree(2)},
	} {
		b.Run(shape.name+"/nodes=16", func(b *testing.B) {
			const nodes, size = 16, 1 << 20
			peers := make([]Peer, nodes)
			for i := range peers {
				peers[i] = Peer{Name: fmt.Sprintf("n%d", i+1), Addr: fmt.Sprintf("n%d:7000", i+1)}
			}
			payload := testPayload(size, 23)
			walls := make([]time.Duration, 0, b.N)
			b.SetBytes(size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fabric := transport.NewFabric(1 << 20)
				start := time.Now()
				res, err := RunSession(context.Background(), SessionConfig{
					Peers:      peers,
					Opts:       Options{ChunkSize: 64 << 10, WindowChunks: 32},
					Topology:   shape.topology,
					NetworkFor: func(i int) transport.Network { return fabric.Host(peers[i].Name) },
					SinkFor:    func(int) io.Writer { return io.Discard },
					InputFile:  bytes.NewReader(payload),
					InputSize:  size,
				})
				walls = append(walls, time.Since(start))
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Report.Failures) != 0 || res.Report.TotalBytes != size {
					b.Fatalf("broadcast not clean: %+v", res.Report)
				}
			}
			b.StopTimer()
			sort.Slice(walls, func(i, j int) bool { return walls[i] < walls[j] })
			b.ReportMetric(float64(walls[len(walls)/2])/float64(time.Millisecond), "p50-ms")
		})
	}
}
