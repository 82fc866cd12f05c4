//go:build !linux

package stream

import "time"

var processStart = time.Now()

// threadCPU falls back to the wall clock where there is no per-thread CPU
// clock to read.
func threadCPU() time.Duration { return time.Since(processStart) }
