//go:build !unix

package core

import "time"

// cpuTime reports 0 where the process's CPU time is not read.
func cpuTime() time.Duration { return 0 }
