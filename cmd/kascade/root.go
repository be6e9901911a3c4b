package main

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"kascade/internal/control"
	"kascade/internal/core"
	"kascade/internal/deploy"
	"kascade/internal/topology"
	"kascade/internal/transport"
)

// newSessionID draws a random non-zero broadcast session ID. The root
// mints one per broadcast so any number of concurrent broadcasts can share
// the same agents (each agent's engine routes by this ID on its single
// data port).
func newSessionID() core.SessionID {
	var b [8]byte
	for {
		if _, err := rand.Read(b[:]); err != nil {
			panic(fmt.Sprintf("kascade: reading random session id: %v", err))
		}
		if id := core.SessionID(binary.BigEndian.Uint64(b[:])); id != 0 {
			return id
		}
	}
}

// agentHandle is one pipeline slot's view of its agent: the shared control
// channel (one per distinct agent address, however many slots and sessions
// it carries), the advertised data address, and the pending result.
type agentHandle struct {
	name     string
	client   *control.Client
	dataAddr string
	pending  *control.Pending
}

// runRoot drives a broadcast as the sending node: open one control channel
// per agent, run admission (PREPARE) for the session on each, assemble the
// pipeline plan, start every agent's node, stream the input, and gather
// the final report. An admission refusal or queue timeout surfaces as a
// typed *core.AdmissionError before any data connection is dialed.
func runRoot(o rootOptions) (*core.Report, error) {
	if o.topology == core.TopologyScatterAllgather {
		// The composite collective needs the whole payload in memory at
		// every rank and a different wire exchange; it runs in-process
		// (internal/mpibcast via kascade-bench), not over agents.
		return nil, fmt.Errorf("kascade: topology %q is only available in-process (see kascade-bench); agents run chain or tree:<k>", o.topology)
	}
	if _, err := core.TreeArity(o.topology); err != nil {
		return nil, err
	}
	nodes := o.nodes
	var stopLocal func()
	if o.local > 0 {
		var err error
		nodes, stopLocal, err = spawnLocalAgents(o.local)
		if err != nil {
			return nil, err
		}
		defer stopLocal()
	}
	if !o.noSort {
		// Kascade sorts destinations by host number so the pipeline
		// matches the physical topology (§III-A).
		sorted := append([]string(nil), nodes...)
		topology.SortByHostNumber(sorted)
		nodes = sorted
	}

	opts := o.protocolOptions()
	session := newSessionID()
	ctx := context.Background()

	// Phase 1: one control channel per distinct agent address (windowed,
	// like TakTuk's windowed connection mode, §III-B), then PREPARE the
	// session on each — engine admission runs here, before the data plane
	// exists.
	clients := newClientPool()
	defer clients.closeAll()
	handles := make([]*agentHandle, len(nodes))
	errs := deploy.ParallelWindow(len(nodes), 50, func(i int) error {
		h, err := prepareAgent(ctx, clients, nodes[i], session, opts)
		if err != nil {
			return fmt.Errorf("agent %s: %w", nodes[i], err)
		}
		handles[i] = h
		return nil
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Phase 2: bind the sender's own engine and assemble the plan. Node 0
	// runs on a private engine, as every agent node runs on its agent's.
	engine, err := core.NewSessionEngine(transport.TCP{}, o.listen, opts)
	if err != nil {
		return nil, fmt.Errorf("binding sender address: %w", err)
	}
	defer engine.Close()
	peers := []core.Peer{{Name: "sender", Addr: engine.Addr()}}
	for _, h := range handles {
		peers = append(peers, core.Peer{Name: h.name, Addr: h.dataAddr})
	}
	plan := core.Plan{Peers: peers, Opts: opts, Session: session, Topology: o.topology}
	if err := plan.Validate(); err != nil {
		return nil, err
	}

	// Phase 3: start every agent. The results ride back on the same
	// channels whenever the broadcast ends.
	sinks := sinkSpec{Path: o.outPath, Command: o.outCmd}
	for i, h := range handles {
		req := control.StartRequest{Session: session, Index: i + 1, Peers: peers, Opts: plan.Opts, Output: sinks, Topology: plan.Topology}
		if o.local > 0 && o.outPath != "" {
			// The demo writes per-node files side by side.
			req.Output = sinkSpec{Path: fmt.Sprintf("%s-%s", o.outPath, h.name)}
		}
		p, err := h.client.Start(req)
		if err != nil {
			return nil, fmt.Errorf("starting agent %s: %w", h.name, err)
		}
		h.pending = p
	}

	// Phase 4: run the sender node on the input.
	nc := core.NodeConfig{
		Index:   0,
		Plan:    plan,
		Network: transport.TCP{},
		Engine:  engine,
	}
	if o.input == "-" {
		nc.Input = os.Stdin
	} else {
		f, err := os.Open(o.input)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		st, err := f.Stat()
		if err != nil {
			return nil, err
		}
		nc.InputFile = f
		nc.InputSize = st.Size()
	}
	node, err := core.NewNode(nc)
	if err != nil {
		return nil, err
	}
	if o.rerank && nc.InputFile != nil && !o.quiet {
		// Late join needs the self-reorganizing tree (the graft rides the
		// re-ranking machinery) and a file-backed sender (catch-up ranges
		// are served from it); print the coordinates joiners need.
		fmt.Fprintf(os.Stderr, "kascade: accepting late joiners: kascade join -sender %s -session %d -agent <agent:port>\n",
			engine.Addr(), session)
	}
	start := time.Now()
	report, runErr := node.Run(ctx)
	elapsed := time.Since(start)

	// Phase 5: gather agent results (best effort: dead agents are in the
	// report already). Each agent gets its own window: one slow agent must
	// not consume the budget of everyone behind it.
	for _, h := range handles {
		if h.pending == nil {
			continue
		}
		resCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
		res, err := h.pending.Wait(resCtx)
		cancel()
		if err != nil {
			continue
		}
		if res.Err != "" && !o.quiet {
			fmt.Fprintf(os.Stderr, "kascade: node %s: %s\n", h.name, res.Err)
		}
	}
	if report != nil && !o.quiet {
		mbps := float64(report.TotalBytes) / 1e6 / elapsed.Seconds()
		fmt.Fprintf(os.Stderr, "kascade: %d bytes to %d node(s) in %v (%.1f MB/s)\n",
			report.TotalBytes, len(peers)-1, elapsed.Round(time.Millisecond), mbps)
	}
	return report, runErr
}

// clientPool holds one control channel per distinct agent address,
// dialing each at most once even when pipeline slots prepare in parallel.
type clientPool struct {
	mu      sync.Mutex
	entries map[string]*poolEntry
}

type poolEntry struct {
	once   sync.Once
	client *control.Client
	err    error
}

func newClientPool() *clientPool {
	return &clientPool{entries: make(map[string]*poolEntry)}
}

func (p *clientPool) get(addr string) (*control.Client, error) {
	p.mu.Lock()
	e, ok := p.entries[addr]
	if !ok {
		e = &poolEntry{}
		p.entries[addr] = e
	}
	p.mu.Unlock()
	e.once.Do(func() {
		e.client, e.err = control.Dial(addr, 10*time.Second, control.ClientOptions{})
	})
	return e.client, e.err
}

func (p *clientPool) closeAll() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, e := range p.entries {
		if e.client != nil {
			e.client.Close()
		}
	}
}

// prepareAgent runs admission for the session on one agent, reusing the
// per-address control channel (an agent appearing in several pipeline
// slots or carrying several concurrent broadcasts still holds exactly one
// control connection from this sender).
func prepareAgent(ctx context.Context, clients *clientPool, addr string, session core.SessionID, opts core.Options) (*agentHandle, error) {
	client, err := clients.get(addr)
	if err != nil {
		return nil, err
	}
	// The deadline covers dial-to-PREPARED including agent-side admission
	// queueing; the agent's own queue deadline resolves sooner and turns
	// into a typed refusal.
	prepCtx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	rep, err := client.Prepare(prepCtx, control.PrepareRequest{
		Session:     session,
		Reservation: opts.PoolReservation(),
		Class:       opts.Class,
	})
	if err != nil {
		return nil, err
	}
	return &agentHandle{name: addr, client: client, dataAddr: rep.DataAddr}, nil
}

// spawnLocalAgents starts n in-process agents on loopback for the
// self-contained demo and returns their control addresses. Each agent gets
// its own engine, exactly like a real agent process: one shared data port
// carrying every session routed to it.
func spawnLocalAgents(n int) ([]string, func(), error) {
	var listeners []net.Listener
	var engines []*core.Engine
	var addrs []string
	stop := func() {
		for _, l := range listeners {
			l.Close()
		}
		for _, e := range engines {
			e.Close()
		}
	}
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			stop()
			return nil, nil, err
		}
		engine, err := core.NewEngine(transport.TCP{}, "127.0.0.1:0", core.EngineOptions{})
		if err != nil {
			l.Close()
			stop()
			return nil, nil, err
		}
		listeners = append(listeners, l)
		engines = append(engines, engine)
		addrs = append(addrs, l.Addr().String())
		a := newAgent(engine, "127.0.0.1", 0)
		go func(l net.Listener) { _ = a.serve(l) }(l)
	}
	return addrs, stop, nil
}
