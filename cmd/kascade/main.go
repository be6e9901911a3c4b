// Command kascade is the command-line broadcast tool of the paper (Fig 2):
//
// Broadcast a file to remote agents (one kascade agent per node):
//
//	kascade -N host2:9430,host3:9430,host4:9430 -i myfile.tgz -o /tmp/myfile.tgz
//
// Decompress on the fly on every destination:
//
//	kascade -N host2:9430,host3:9430 -i myfile.tgz -O 'tar -xzC /opt/'
//
// Stream standard input (disk cloning à la dd | gzip | kascade):
//
//	dd if=/dev/sda2 | gzip | kascade -N host2:9430 -O 'gunzip | dd of=/dev/sda2'
//
// Start an agent on a destination node:
//
//	kascade agent -listen :9430
//
// Graft a fresh agent onto a broadcast that is already running (the
// sender prints the -sender/-session pair when started with -rerank):
//
//	kascade join -agent host5:9430 -sender host1:9431 -session 7 -o /tmp/myfile.tgz
//
// Print an agent's engine stats, sessions and memory, as JSON:
//
//	kascade status host2:9430
//
// Self-contained demo: broadcast to N in-process nodes over loopback TCP:
//
//	kascade -local 5 -i myfile.tgz -o /tmp/out
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"strings"
	"time"

	"kascade/internal/core"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "agent" {
		agentMain(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "join" {
		joinMain(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "status" {
		statusMain(os.Args[2:])
		return
	}
	rootMain(os.Args[1:])
}

// agentGCPercent paces an agent's garbage collector. Nearly all of a relay's
// live heap is its pooled replay window, which lives as long as its
// sessions do, so the runtime's default GOGC=100 would let garbage grow by
// a second window before each collection. At 25 the heap peaks near 1.25
// times the windows, and collections stay rare because the agent
// allocates little besides them. An explicit GOGC in the agent's
// environment wins.
const agentGCPercent = 25

func agentMain(args []string) {
	fs := flag.NewFlagSet("kascade agent", flag.ExitOnError)
	listen := fs.String("listen", ":9430", "control address to listen on")
	dataListen := fs.String("data", ":0", "shared data address all sessions are served on")
	advertise := fs.String("advertise", "", "host to advertise for data connections (default: control host)")
	_ = fs.Parse(args)
	exitWithStderrReaders()
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(agentGCPercent)
	}
	if err := runAgent(*listen, *dataListen, *advertise); err != nil {
		fmt.Fprintln(os.Stderr, "kascade agent:", err)
		os.Exit(1)
	}
}

// rootOptions gathers the sender-side command line.
type rootOptions struct {
	nodes    []string // agent control addresses
	local    int      // >0: self-contained demo with N in-process nodes
	input    string   // "-" = stdin
	outPath  string
	outCmd   string
	chunkKiB int
	window   int
	class    string
	topology string // dissemination shape: "chain" or "tree:<k>"
	rerank   bool   // Snow-style mid-broadcast tree re-ranking
	noSort   bool
	listen   string
	timeout  time.Duration
	quiet    bool
}

func rootMain(args []string) {
	o, err := parseRootFlags(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kascade:", err)
		os.Exit(2)
	}
	report, err := runRoot(o)
	if report != nil && !o.quiet {
		fmt.Println(report)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "kascade:", err)
		os.Exit(1)
	}
}

// parseRootFlags turns the sender-side command line into rootOptions,
// defaults included. A malformed flag or -h exits inside the flag package,
// as for every kascade subcommand; the error reports a command line that
// names no receivers.
func parseRootFlags(args []string) (rootOptions, error) {
	fs := flag.NewFlagSet("kascade", flag.ExitOnError)
	var o rootOptions
	nodeList := fs.String("N", "", "comma-separated agent addresses (host:port,...)")
	fs.IntVar(&o.local, "local", 0, "run a self-contained demo with N in-process nodes")
	fs.StringVar(&o.input, "i", "-", "input file ('-' reads standard input)")
	fs.StringVar(&o.outPath, "o", "", "output file path on every destination")
	fs.StringVar(&o.outCmd, "O", "", "shell command consuming the stream on every destination")
	fs.IntVar(&o.chunkKiB, "chunk", core.DefaultChunkSize>>10, "chunk size in KiB")
	fs.IntVar(&o.window, "window", core.DefaultWindowChunks, "replay window in chunks")
	fs.StringVar(&o.class, "class", core.ClassBulk, "priority class on shared agents (bulk|interactive; drives admission order and scheduler weight)")
	fs.StringVar(&o.topology, "topology", core.TopologyChain, "dissemination shape: chain (the paper's pipeline) or tree:<k> (k-ary tree; every relay feeds k children)")
	fs.BoolVar(&o.rerank, "rerank", false, "self-reorganizing tree: re-rank the dissemination tree mid-broadcast by measured link rates (requires -topology tree:<k>)")
	fs.BoolVar(&o.noSort, "no-sort", false, "keep -N order instead of sorting by host number")
	fs.StringVar(&o.listen, "listen", "127.0.0.1:0", "sender data address to bind")
	fs.DurationVar(&o.timeout, "stall-timeout", time.Second, "write-stall failure detection timeout")
	fs.BoolVar(&o.quiet, "q", false, "only print the final report")
	_ = fs.Parse(args)

	if *nodeList != "" {
		for _, n := range strings.Split(*nodeList, ",") {
			if n = strings.TrimSpace(n); n != "" {
				o.nodes = append(o.nodes, n)
			}
		}
	}
	if len(o.nodes) == 0 && o.local <= 0 {
		return o, errors.New("need -N <agents> or -local <n> (see -h)")
	}
	return o, nil
}

// protocolOptions converts CLI flags into engine options.
func (o rootOptions) protocolOptions() core.Options {
	return core.Options{
		ChunkSize:         o.chunkKiB << 10,
		WindowChunks:      o.window,
		Class:             o.class,
		Rerank:            o.rerank,
		WriteStallTimeout: o.timeout,
	}
}
