//go:build !linux

package main

import "os"

// setPipeSize is a no-op where the pipe capacity cannot be set.
func setPipeSize(*os.File, int) {}

// exitWithStderrReaders is a no-op where standard error cannot be watched
// for its readers; the agent then dies at its next write there.
func exitWithStderrReaders() {}
