// Package benchkit is the shared harness behind the engine
// microbenchmarks: the top-level bench_test.go and cmd/kascade-bench both
// push real broadcasts through it, so the numbers in BENCH_1.json and the
// numbers `go test -bench` prints come from the same code path.
package benchkit

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"kascade/internal/core"
	"kascade/internal/iolimit"
	"kascade/internal/mpibcast"
	"kascade/internal/transport"
)

// ReaderAt adapts an in-memory payload to io.ReaderAt with the full
// contract: a short read at the tail carries io.EOF, as io.SectionReader
// does.
type ReaderAt struct{ p []byte }

// NewReaderAt wraps p.
func NewReaderAt(p []byte) *ReaderAt { return &ReaderAt{p} }

func (r *ReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(r.p)) {
		return 0, io.EOF
	}
	n := copy(p, r.p[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// Payload generates size deterministic pattern bytes.
func Payload(size int64, seed uint64) []byte {
	p := make([]byte, size)
	iolimit.NewPattern(size, seed).Read(p)
	return p
}

// Spec is one engine microbenchmark: a pipeline shape to push Size bytes
// through. The single source of truth for the benchmark matrix — the
// top-level `go test -bench Engine` benchmarks and the BENCH_1.json rows
// written by `kascade-bench -engine` both iterate this table, so their
// names and parameters cannot drift apart.
type Spec struct {
	Name  string
	Nodes int
	Chunk int
	Size  int64
	// Topology selects the dissemination shape ("" = chain,
	// core.TopologyTree(k) = k-ary tree, core.TopologyScatterAllgather =
	// the van de Geijn composite, dispatched to internal/mpibcast).
	Topology string
	// LinkRate rate-shapes every fabric link to this many bytes per
	// second (0 = unshaped).
	LinkRate float64
	// SlowNode, when > 0 alongside LinkRate, pins that node's outbound
	// links to LinkRate/10: the heterogeneous-bandwidth scenario the
	// re-ranking rows measure.
	SlowNode int
	// Rerank enables mid-broadcast self-reorganization (tree topologies).
	Rerank bool
	// JoinAt, when > 0, grafts one late joiner onto the live broadcast
	// once any receiver has ingested this fraction of the payload
	// (dynamic membership; requires Rerank + a tree Topology). The
	// measured session then also carries the join negotiation, the
	// joiner's range catch-up from the sender, and the epilogue waiting on
	// its sink parity.
	JoinAt float64
}

// EngineBenchSize is the per-iteration payload of every engine benchmark.
const EngineBenchSize = 16 << 20

// EngineBenchmarks returns the benchmark matrix: pipeline-length sweep at
// a fixed chunk, a chunk-size sweep at a fixed depth, and the tree,
// re-ranking and late-join shapes.
func EngineBenchmarks() []Spec {
	var specs []Spec
	for _, nodes := range []int{2, 4, 8, 16} {
		specs = append(specs, Spec{
			Name:  fmt.Sprintf("EnginePipeline/nodes=%d", nodes),
			Nodes: nodes, Chunk: 256 << 10, Size: EngineBenchSize,
		})
	}
	for _, chunk := range []int{64 << 10, 256 << 10, 1 << 20, 4 << 20} {
		specs = append(specs, Spec{
			Name:  fmt.Sprintf("EngineChunkSize/chunk=%dKiB", chunk>>10),
			Nodes: 5, Chunk: chunk, Size: EngineBenchSize,
		})
	}
	// Tree dissemination: the 16-node binary tree halves no link's load
	// (every relay still uploads twice) but cuts the hop depth from 15 to
	// 4, trading per-relay fan-out for pipeline latency.
	specs = append(specs, Spec{
		Name:  "EngineTree/nodes=16,k=2",
		Nodes: 16, Chunk: 256 << 10, Size: EngineBenchSize,
		Topology: core.TopologyTree(2),
	})
	// Self-reorganization ablation: the same binary tree on a rate-shaped
	// fabric (64 MiB/s links) with node 1's outbound links at one tenth of
	// that — a root child whose subtree drains through a 6.4 MiB/s relay.
	// The off/on delta is the throughput mid-broadcast re-ranking recovers
	// by demoting the slow relay to a leaf and re-grafting its subtree
	// onto a full-rate peer.
	for _, on := range []bool{false, true} {
		state := "off"
		if on {
			state = "on"
		}
		specs = append(specs, Spec{
			Name:  fmt.Sprintf("EngineTreeRerank/nodes=16,k=2,slow=1,rerank=%s", state),
			Nodes: 16, Chunk: 256 << 10, Size: EngineBenchSize,
			Topology: core.TopologyTree(2),
			LinkRate: 64 << 20, SlowNode: 1, Rerank: on,
		})
	}
	// Dynamic membership: the same 16-node rerank tree with one late
	// joiner grafted at half transfer. The row prices the whole join path
	// against EngineTreeRerank's rerank=on baseline: graft negotiation,
	// the joiner's windowed range catch-up streamed from the sender
	// alongside the live broadcast, and the completion wave waiting for
	// the joiner's sink to reach parity.
	specs = append(specs, Spec{
		Name:  "EngineLateJoin/nodes=16,k=2,join=50%",
		Nodes: 16, Chunk: 256 << 10, Size: EngineBenchSize,
		Topology: core.TopologyTree(2),
		LinkRate: 64 << 20, Rerank: true, JoinAt: 0.5,
	})
	return specs
}

// Broadcast runs one benchmark iteration of the spec on a fresh fabric:
// new listeners, nodes and pipes, with every sink discarded.
func (spec Spec) Broadcast() (*core.SessionResult, error) {
	opts := EngineOptions(spec.Chunk)
	if spec.Rerank {
		opts.Rerank = true
		// Bench-speed cadence: at these link rates the 16 MiB transfer
		// lasts a couple of seconds, so the 500 ms production cadence
		// would spend most of the run before the first migration.
		opts.RerankInterval = 150 * time.Millisecond
		opts.RerankMinInterval = 300 * time.Millisecond
	}
	payload := Payload(spec.Size, 99)
	if spec.Topology == core.TopologyScatterAllgather {
		return spec.broadcastScatterAllgather(payload)
	}
	peers := make([]core.Peer, spec.Nodes)
	fabric := transport.NewFabric(1 << 20)
	for i := range peers {
		peers[i] = core.Peer{Name: fmt.Sprintf("n%d", i+1), Addr: fmt.Sprintf("n%d:7000", i+1)}
	}
	if spec.LinkRate > 0 {
		fabric.SetDefaultProfile(transport.Profile{Rate: spec.LinkRate})
		if spec.SlowNode > 0 && spec.SlowNode < len(peers) {
			slow := transport.Profile{Rate: spec.LinkRate / 10}
			for i := range peers {
				if i != spec.SlowNode {
					fabric.SetLinkProfile(peers[spec.SlowNode].Name, peers[i].Name, slow)
				}
			}
		}
	}
	cfg := core.SessionConfig{
		Peers:      peers,
		Opts:       opts,
		Topology:   spec.Topology,
		NetworkFor: func(i int) transport.Network { return fabric.Host(peers[i].Name) },
		SinkFor:    func(int) io.Writer { return io.Discard },
		InputFile:  NewReaderAt(payload),
		InputSize:  spec.Size,
	}
	if spec.JoinAt > 0 {
		return spec.broadcastLateJoin(cfg, fabric)
	}
	res, err := core.RunSession(context.Background(), cfg)
	if err != nil {
		return res, err
	}
	if len(res.Report.Failures) != 0 {
		return res, fmt.Errorf("benchkit: failures during broadcast: %v", res.Report)
	}
	return res, nil
}

// broadcastLateJoin runs one iteration of a JoinAt spec: the broadcast
// starts normally, and once any receiver's ingestion crosses the JoinAt
// mark (observed through the trace seam, not by sleeping) a fresh host is
// grafted onto the live tree. The session's elapsed time covers the whole
// dynamic-membership path, since the completion wave waits for the
// joiner's catch-up parity.
func (spec Spec) broadcastLateJoin(cfg core.SessionConfig, fabric *transport.Fabric) (*core.SessionResult, error) {
	ctx := context.Background()
	joinMark := uint64(float64(spec.Size) * spec.JoinAt)
	type joinRes struct {
		h   *core.JoinHandle
		err error
	}
	sessCh := make(chan *core.Session, 1)
	joinCh := make(chan joinRes, 1)
	var once sync.Once
	cfg.Trace = func(ev core.TraceEvent) {
		if ev.Kind == core.TraceChunk && ev.Node > 0 && ev.Offset >= joinMark {
			once.Do(func() {
				go func() {
					s := <-sessCh
					h, err := s.Join(ctx, core.JoinConfig{
						Peer:    core.Peer{Name: "j1", Addr: "j1:7000"},
						Network: fabric.Host("j1"),
					})
					joinCh <- joinRes{h, err}
				}()
			})
		}
	}
	sess, err := core.StartSession(ctx, cfg)
	if err != nil {
		return nil, err
	}
	sessCh <- sess
	res, err := sess.Wait()
	if err != nil {
		return res, err
	}
	jr := <-joinCh
	if jr.err != nil {
		return res, fmt.Errorf("benchkit: late join: %w", jr.err)
	}
	if _, werr := jr.h.Wait(); werr != nil {
		return res, fmt.Errorf("benchkit: joiner: %w", werr)
	}
	if len(res.Report.Failures) != 0 {
		return res, fmt.Errorf("benchkit: failures during broadcast: %v", res.Report)
	}
	return res, nil
}

// broadcastScatterAllgather dispatches the composite collective to
// internal/mpibcast — core.Node cannot run it — and adapts the outcome to
// the SessionResult shape the harness reports everywhere else.
func (spec Spec) broadcastScatterAllgather(payload []byte) (*core.SessionResult, error) {
	names := make([]string, spec.Nodes)
	addrs := make([]string, spec.Nodes)
	fabric := transport.NewFabric(1 << 20)
	for i := range names {
		names[i] = fmt.Sprintf("n%d", i+1)
		addrs[i] = names[i] + ":7000"
	}
	cfg := mpibcast.ScatterAllgatherConfig{
		Payload:    payload,
		Names:      names,
		Addrs:      addrs,
		NetworkFor: func(i int) transport.Network { return fabric.Host(names[i]) },
	}
	start := time.Now()
	total, err := mpibcast.BroadcastScatterAllgather(context.Background(), cfg)
	if err != nil {
		return nil, err
	}
	return &core.SessionResult{
		Report:  &core.Report{TotalBytes: total},
		Elapsed: time.Since(start),
	}, nil
}

// EngineOptions are the protocol options every engine benchmark runs with,
// sized for fast in-memory iteration.
// Failure detection is deliberately slackened, exactly as in MuxOptions:
// a deep pipeline on a small builder can starve a PONG past the 500 ms
// production default and a perfectly healthy node gets declared dead,
// aborting the artifact. The benches measure throughput, not detection
// latency — the detectors exist here only as a safety net.
func EngineOptions(chunk int) core.Options {
	return core.Options{
		ChunkSize:         chunk,
		WindowChunks:      32,
		WriteStallTimeout: 3 * time.Second,
		PingTimeout:       2 * time.Second,
	}
}

// MuxOptions are the protocol options of the session-multiplexing bench
// (one name per bench family; both slacken detection identically).
func MuxOptions(chunk int) core.Options {
	return EngineOptions(chunk)
}

// Quantiles summarises a latency sample for machine-readable reports
// (recovery-latency distributions in the chaos bench, hot-path latencies
// elsewhere). All values carry the caller's unit.
type Quantiles struct {
	N   int     `json:"n"`
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	Max float64 `json:"max"`
}

// Summarize computes Quantiles over an unsorted sample (nearest-rank
// percentiles); a nil or empty sample yields the zero value.
func Summarize(sample []float64) Quantiles {
	if len(sample) == 0 {
		return Quantiles{}
	}
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	rank := func(q float64) float64 {
		i := int(q*float64(len(s))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(s) {
			i = len(s) - 1
		}
		return s[i]
	}
	return Quantiles{
		N:   len(s),
		P50: rank(0.50),
		P90: rank(0.90),
		Max: s[len(s)-1],
	}
}

// MuxSessionCounts is the concurrency sweep of the session-multiplexing
// benchmark: how many overlapping broadcasts one set of engine processes
// carries. Shared by `kascade-bench -mux` so the BENCH_2.json rows cannot
// drift from the documented matrix.
var MuxSessionCounts = []int{1, 4, 16}

// MuxBroadcast pushes `sessions` concurrent broadcasts of size bytes each
// through one shared Engine per fabric host, all under the default bulk
// class. See MuxBroadcastClasses.
func MuxBroadcast(sessions, nodes int, size int64, chunk int) ([]*core.SessionResult, time.Duration, error) {
	return MuxBroadcastClasses(sessions, nodes, size, chunk, nil)
}

// MuxBroadcastClasses pushes `sessions` concurrent broadcasts of size
// bytes each through one shared Engine per fabric host: every host runs a
// single data listener and the overlapping sessions are routed by their
// session IDs, exactly as a production agent carries overlapping
// broadcasts on one advertised port. classFor assigns each session its
// priority class (nil runs everything as core.ClassBulk), exercising the
// engines' weighted scheduler and class-ordered admission. It returns the
// per-session results (every session verified failure-free and
// byte-complete) and the wall-clock time of the broadcast phase alone
// (setup and payload generation excluded).
func MuxBroadcastClasses(sessions, nodes int, size int64, chunk int, classFor func(s int) string) ([]*core.SessionResult, time.Duration, error) {
	fabric := transport.NewFabric(1 << 20)
	peers := make([]core.Peer, nodes)
	engines := make([]*core.Engine, nodes)
	for i := range peers {
		name := fmt.Sprintf("n%d", i+1)
		peers[i] = core.Peer{Name: name, Addr: name + ":7000"}
		e, err := core.NewEngine(fabric.Host(name), peers[i].Addr, core.EngineOptions{})
		if err != nil {
			return nil, 0, err
		}
		engines[i] = e
		defer e.Close()
	}

	configs := make([]core.SessionConfig, sessions)
	for s := 0; s < sessions; s++ {
		payload := Payload(size, 100+uint64(s))
		opts := MuxOptions(chunk)
		opts.Class = core.ClassBulk
		if classFor != nil {
			opts.Class = classFor(s)
		}
		configs[s] = core.SessionConfig{
			Peers:      peers,
			Opts:       opts,
			Session:    core.SessionID(s + 1),
			NetworkFor: func(i int) transport.Network { return fabric.Host(peers[i].Name) },
			EngineFor:  func(i int) *core.Engine { return engines[i] },
			SinkFor:    func(int) io.Writer { return io.Discard },
			InputFile:  NewReaderAt(payload),
			InputSize:  size,
		}
	}

	results := make([]*core.SessionResult, sessions)
	errs := make([]error, sessions)
	var wg sync.WaitGroup
	start := time.Now()
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			results[s], errs[s] = core.RunSession(context.Background(), configs[s])
		}(s)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for s := 0; s < sessions; s++ {
		switch {
		case errs[s] != nil:
			return results, elapsed, fmt.Errorf("benchkit: session %d: %w", s+1, errs[s])
		case len(results[s].Report.Failures) != 0:
			return results, elapsed, fmt.Errorf("benchkit: session %d failures: %v", s+1, results[s].Report)
		case results[s].Report.TotalBytes != uint64(size):
			return results, elapsed, fmt.Errorf("benchkit: session %d delivered %d of %d bytes", s+1, results[s].Report.TotalBytes, size)
		}
	}
	return results, elapsed, nil
}

// EngineBroadcast pushes size bytes through a real nodes-long pipeline
// over an in-memory fabric with the given chunk size, discarding sinks. It
// is one benchmark iteration: all listeners, nodes and pipes are fresh.
func EngineBroadcast(nodes int, size int64, chunk int) (*core.SessionResult, error) {
	return Spec{Nodes: nodes, Size: size, Chunk: chunk}.Broadcast()
}
