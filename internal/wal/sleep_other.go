//go:build !linux

package wal

import "time"

// preciseSleep sleeps for d; only Linux has the timerfd that makes it
// precise while the processors idle.
func preciseSleep(d time.Duration) { time.Sleep(d) }
