package precise

import (
	"testing"
	"time"
)

// TestSleepNeverShort checks that Sleep takes at least what it is
// asked for.
func TestSleepNeverShort(t *testing.T) {
	const d = 200 * time.Microsecond
	for i := 0; i < 50; i++ {
		start := time.Now()
		Sleep(d)
		if took := time.Since(start); took < d {
			t.Fatalf("Sleep(%v) returned after %v", d, took)
		}
	}
}

// TestSetMovesWaitEarlier checks that a Set from another goroutine
// ends a Wait that is already under way at the new, earlier deadline.
func TestSetMovesWaitEarlier(t *testing.T) {
	tm := NewTimer()
	defer tm.Release()
	tm.Set(time.Now().Add(time.Hour))
	done := make(chan time.Time, 1)
	go func() {
		tm.Wait()
		done <- time.Now()
	}()
	// Give the Wait time to block; if it has not, it must still end
	// at the new deadline.
	time.Sleep(5 * time.Millisecond)
	due := time.Now().Add(2 * time.Millisecond)
	tm.Set(due)
	select {
	case woke := <-done:
		if woke.Before(due) {
			t.Errorf("Wait ended %v before its deadline", due.Sub(woke))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Wait did not end at the earlier deadline")
	}
}
