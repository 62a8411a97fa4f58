//go:build linux

package wal

import (
	"os"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// preciseSleep sleeps for d, and never less. A plain time.Sleep parks
// on a runtime timer, and when every processor is idle the scheduler
// waits for that timer in epoll_wait, whose millisecond timeout turns
// a 100 µs sleep into about 1 ms. So the sleep waits on two things: a
// timerfd the netpoller watches, which wakes epoll_wait on time while
// the processors idle, and a read deadline — a runtime timer — which
// is on time while they are busy. Whichever fires first ends it.
func preciseSleep(d time.Duration) {
	deadline := time.Now().Add(d)
	s := getSleeper()
	if s != nil && s.settime(d) {
		s.f.SetReadDeadline(deadline)
		var buf [8]byte
		if _, err := s.f.Read(buf[:]); err != nil {
			s.settime(0) // the deadline came first: disarm the timerfd
		}
		sleepers.Lock()
		sleepers.free = append(sleepers.free, s)
		sleepers.Unlock()
	}
	if left := time.Until(deadline); left > 0 {
		time.Sleep(left)
	}
}

// A sleeper is a non-blocking timerfd wrapped in an os.File, so reads
// park on the netpoller and honour deadlines. The raw descriptor is
// kept from creation: File.Fd would switch it to blocking mode and
// disable the deadline.
type sleeper struct {
	fd int
	f  *os.File
}

// sleepers is the free list of timerfds, shared by every MemFS: the
// process holds as many as it ever had syncs sleeping at once.
var sleepers struct {
	sync.Mutex
	free []*sleeper
}

const clockMonotonic = 1

// getSleeper takes a free timerfd or makes one; nil if none can be had.
func getSleeper() *sleeper {
	sleepers.Lock()
	if n := len(sleepers.free); n > 0 {
		s := sleepers.free[n-1]
		sleepers.free = sleepers.free[:n-1]
		sleepers.Unlock()
		return s
	}
	sleepers.Unlock()
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil
	}
	return &sleeper{fd: int(fd), f: os.NewFile(fd, "timerfd")}
}

// settime arms the timerfd to fire once after d; zero disarms it.
func (s *sleeper) settime(d time.Duration) bool {
	its := struct{ interval, value syscall.Timespec }{value: syscall.NsecToTimespec(d.Nanoseconds())}
	_, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(s.fd), 0,
		uintptr(unsafe.Pointer(&its)), 0, 0, 0)
	return errno == 0
}
