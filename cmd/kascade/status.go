package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"kascade/internal/control"
)

// statusTimeout bounds the dial, and then the STATUS exchange.
const statusTimeout = 5 * time.Second

// statusMain is `kascade status <agent:port>`: it asks one agent for its
// engine stats, control sessions and process memory and prints the reply.
func statusMain(args []string) {
	fs := flag.NewFlagSet("kascade status", flag.ExitOnError)
	fs.Usage = func() { fmt.Fprintln(fs.Output(), "usage: kascade status <agent:port>") }
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		fs.Usage()
		os.Exit(2)
	}
	if err := runStatus(fs.Arg(0), os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "kascade status:", err)
		os.Exit(1)
	}
}

// runStatus writes the agent's STATUS reply to w as indented JSON.
func runStatus(addr string, w io.Writer) error {
	c, err := control.Dial(addr, statusTimeout, control.ClientOptions{HeartbeatInterval: -1})
	if err != nil {
		return err
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), statusTimeout)
	defer cancel()
	rep, err := c.Status(ctx)
	if err != nil {
		return fmt.Errorf("STATUS from %s: %w", addr, err)
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
