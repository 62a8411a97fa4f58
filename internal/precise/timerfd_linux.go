//go:build linux

package precise

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

const clockMonotonic = 1

// newTimerfd makes a non-blocking timerfd wrapped in an os.File, so
// reads park on the netpoller and honour deadlines. The raw descriptor
// is kept from creation: File.Fd would switch it to blocking mode and
// disable the deadline.
func newTimerfd() (int, *os.File, bool) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return 0, nil, false
	}
	return int(fd), os.NewFile(fd, "timerfd"), true
}

// settime arms the timerfd to fire once after d; zero disarms it.
func settime(fd int, d time.Duration) bool {
	its := struct{ interval, value syscall.Timespec }{value: syscall.NsecToTimespec(d.Nanoseconds())}
	_, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(fd), 0,
		uintptr(unsafe.Pointer(&its)), 0, 0, 0)
	return errno == 0
}
