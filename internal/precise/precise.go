// Package precise waits for sub-millisecond deadlines on time.
//
// A plain time.Sleep or time.AfterFunc parks on a runtime timer, and
// when every processor is idle the scheduler waits for that timer in
// epoll_wait, whose millisecond timeout turns a 100 µs wait into about
// 1 ms. So on Linux a Timer waits on two things: a timerfd the
// netpoller watches, which wakes epoll_wait on time while the
// processors idle, and a read deadline on that file at the same
// instant — a runtime timer — which is on time while they are busy.
// Whichever fires first ends the wait. Other platforms wait on a plain
// runtime timer.
//
// Every precise wait in the repository goes through Timer.Wait: the
// simulated disk's fsync (wal.MemFS) and the simulated network's link
// delays (netsim).
package precise

import (
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// A Timer wakes one waiting goroutine at a deadline that other
// goroutines may move while it waits. Timers come from a free list
// shared by the whole process, so the process holds as many timerfds
// as it ever had waits at once, and a discarded owner holds none.
type Timer struct {
	fd     int
	f      *os.File    // the timerfd; nil if none could be had
	plain  *time.Timer // the wake when f is nil
	armed  atomic.Bool // the timerfd may still fire
	broken bool        // settime failed; Release closes the timerfd
}

var timers struct {
	sync.Mutex
	free []*Timer
}

// NewTimer takes a disarmed Timer from the free list, or makes one.
func NewTimer() *Timer {
	timers.Lock()
	if n := len(timers.free); n > 0 {
		t := timers.free[n-1]
		timers.free = timers.free[:n-1]
		timers.Unlock()
		return t
	}
	timers.Unlock()
	if fd, f, ok := newTimerfd(); ok {
		return &Timer{fd: fd, f: f}
	}
	t := &Timer{plain: time.NewTimer(time.Hour)}
	t.plain.Stop()
	return t
}

// Set arms the timer for deadline, replacing any earlier setting. It
// may be called while another goroutine is in Wait; that Wait then
// ends at the new deadline.
func (t *Timer) Set(deadline time.Time) {
	d := max(time.Until(deadline), 1) // a zero timerfd setting disarms
	if t.plain != nil {
		t.plain.Reset(d)
		return
	}
	t.armed.Store(true)
	if !settime(t.fd, d) {
		// The read deadline alone still ends the wait, as late as a
		// plain timer would.
		t.broken = true
	}
	t.f.SetReadDeadline(deadline)
}

// Wait blocks until the deadline last Set has passed. It may return
// early, so callers check the clock and Wait again.
func (t *Timer) Wait() {
	if t.f == nil {
		<-t.plain.C
		return
	}
	var buf [8]byte
	if _, err := t.f.Read(buf[:]); err == nil {
		t.armed.Store(false) // the timerfd fired; it is one-shot
	}
}

// Release returns the timer to the free list. The caller must not use
// it again, nor let any goroutine Set it.
func (t *Timer) Release() {
	switch {
	case t.f == nil:
		t.plain.Stop()
	case t.broken:
		t.f.Close()
		return
	case t.armed.Load():
		// The read deadline came first; disarm the timerfd so it does
		// not wake an idle netpoller from the free list.
		if !settime(t.fd, 0) {
			t.f.Close()
			return
		}
		t.armed.Store(false)
	}
	timers.Lock()
	timers.free = append(timers.free, t)
	timers.Unlock()
}

// Sleep sleeps for d, and never less.
func Sleep(d time.Duration) {
	deadline := time.Now().Add(d)
	t := NewTimer()
	t.Set(deadline)
	for time.Now().Before(deadline) {
		t.Wait()
	}
	t.Release()
}
