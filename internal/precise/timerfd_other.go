//go:build !linux

package precise

import (
	"os"
	"time"
)

// Only Linux has the timerfd; elsewhere every Timer is a plain one.
func newTimerfd() (int, *os.File, bool) { return 0, nil, false }

func settime(int, time.Duration) bool { return false }
