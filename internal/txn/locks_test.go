package txn

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

func TestLockReentrant(t *testing.T) {
	lm := NewLockManager(DetectDeadlock)
	if err := lm.Acquire(1, "a", Read); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(1, "a", Read); err != nil {
		t.Fatalf("reentrant read: %v", err)
	}
	if err := lm.Acquire(1, "a", Write); err != nil {
		t.Fatalf("sole-holder upgrade: %v", err)
	}
	if m, ok := lm.Held(1, "a"); !ok || m != Write {
		t.Fatalf("held = %v, %v", m, ok)
	}
	lm.ReleaseAll(1)
	if _, ok := lm.Held(1, "a"); ok {
		t.Fatal("lock survived ReleaseAll")
	}
}

func TestWriterNotStarvedByReaders(t *testing.T) {
	lm := NewLockManager(DetectDeadlock)
	if err := lm.Acquire(1, "a", Read); err != nil {
		t.Fatal(err)
	}
	// A writer queues.
	wDone := make(chan error, 1)
	go func() { wDone <- lm.Acquire(2, "a", Write) }()
	time.Sleep(20 * time.Millisecond)
	// A later reader must not overtake the queued writer.
	rDone := make(chan error, 1)
	go func() { rDone <- lm.Acquire(3, "a", Read) }()
	select {
	case <-rDone:
		t.Fatal("reader overtook a queued writer")
	case <-time.After(50 * time.Millisecond):
	}
	lm.ReleaseAll(1)
	if err := <-wDone; err != nil {
		t.Fatalf("writer: %v", err)
	}
	lm.ReleaseAll(2)
	if err := <-rDone; err != nil {
		t.Fatalf("reader after writer: %v", err)
	}
	lm.ReleaseAll(3)
}

// TestLockLivenessUnderRandomLoad: N workers run random acquire
// sequences; deadlock victims release and retry. The system must
// drain — no lost wakeups, no permanent wedge.
func TestLockLivenessUnderRandomLoad(t *testing.T) {
	for _, policy := range []Policy{DetectDeadlock, WaitDie} {
		lm := NewLockManager(policy)
		objects := []string{"a", "b", "c", "d"}
		const workers = 8
		const rounds = 50

		var wg sync.WaitGroup
		done, abandon := make(chan struct{}), make(chan struct{})
		abandoned := func() bool {
			select {
			case <-abandon:
				return true
			default:
				return false
			}
		}
		for w := 0; w < workers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w)))
				id := uint64(w + 1)
				for r := 0; r < rounds && !abandoned(); r++ {
					tx := id + uint64(r)*100 // fresh "transaction" per round
					n := 1 + rng.Intn(3)
					for i := 0; i < n && !abandoned(); i++ {
						obj := objects[rng.Intn(len(objects))]
						mode := Mode(rng.Intn(2))
						if err := lm.Acquire(tx, obj, mode); err != nil {
							break // deadlock or wait-die: abort
						}
					}
					lm.ReleaseAll(tx)
				}
			}()
		}
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(20 * time.Second):
			// Let the workers out before failing, so a wedge costs this
			// test and not the package's timeout: no new acquisitions,
			// and every lock any transaction could hold released, which
			// grants whoever is queued; they release in turn.
			close(abandon)
			for tx := uint64(1); tx <= workers+rounds*100; tx++ {
				lm.ReleaseAll(tx)
			}
			<-done
			t.Fatalf("policy %v: lock manager wedged under random load", policy)
		}
	}
}

// queued waits until n requests wait in obj's queue.
func queued(t *testing.T, lm *LockManager, obj string, n int) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		lm.mu.Lock()
		got := 0
		if ls := lm.locks[obj]; ls != nil {
			got = len(ls.queue)
		}
		lm.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d requests queued for %q, want %d", got, obj, n)
		}
	}
}

// TestDeadlockBehindGrantedWaiter: a waiter passed over when the lock
// goes to the one queued ahead of it now waits for that one, though it
// queued before that one held anything. T1 (holding b) is left queued
// for a behind T3; T3 asking for b closes the cycle and must be told.
func TestDeadlockBehindGrantedWaiter(t *testing.T) {
	lm := NewLockManager(DetectDeadlock)
	lm.Acquire(2, "a", Write)
	lm.Acquire(1, "b", Write)
	got3, got1 := make(chan error, 1), make(chan error, 1)
	go func() { got3 <- lm.Acquire(3, "a", Write) }()
	queued(t, lm, "a", 1)
	go func() { got1 <- lm.Acquire(1, "a", Write) }()
	queued(t, lm, "a", 2)

	lm.ReleaseAll(2)
	if err := <-got3; err != nil {
		t.Fatalf("T3 not granted a: %v", err)
	}
	cycle := make(chan error, 1)
	go func() { cycle <- lm.Acquire(3, "b", Write) }()
	select {
	case err := <-cycle:
		if err != ErrDeadlock {
			t.Fatalf("Acquire(3, b) = %v, want ErrDeadlock", err)
		}
	case <-time.After(2 * time.Second):
		t.Error("T3 waits for b held by T1, which waits for a held by T3: deadlock not detected")
	}
	lm.ReleaseAll(3) // the victim aborts; T1 gets a
	if err := <-got1; err != nil {
		t.Fatalf("T1 not granted a after the victim released: %v", err)
	}
	lm.ReleaseAll(1)
}

// TestWaitDieBehindGrantedWaiter: under wait-die the same pass-over
// leaves a younger transaction waiting for an older one, which the
// policy forbids; it must die then, as it would had it asked then.
func TestWaitDieBehindGrantedWaiter(t *testing.T) {
	lm := NewLockManager(WaitDie)
	lm.Acquire(9, "a", Write)
	got1, got3 := make(chan error, 1), make(chan error, 1)
	go func() { got1 <- lm.Acquire(1, "a", Write) }() // both older than 9: both wait
	queued(t, lm, "a", 1)
	go func() { got3 <- lm.Acquire(3, "a", Write) }()
	queued(t, lm, "a", 2)

	lm.ReleaseAll(9)
	if err := <-got1; err != nil {
		t.Fatalf("T1 not granted a: %v", err)
	}
	select {
	case err := <-got3:
		if err != ErrWaitDie {
			t.Fatalf("T3 behind older T1 = %v, want ErrWaitDie", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("T3 left waiting for the older T1")
	}
	lm.ReleaseAll(1)
}

func TestDeadlockThreeWayCycle(t *testing.T) {
	lm := NewLockManager(DetectDeadlock)
	lm.Acquire(1, "a", Write)
	lm.Acquire(2, "b", Write)
	lm.Acquire(3, "c", Write)

	errs := make(chan error, 3)
	go func() { errs <- lm.Acquire(1, "b", Write) }()
	time.Sleep(20 * time.Millisecond)
	go func() { errs <- lm.Acquire(2, "c", Write) }()
	time.Sleep(20 * time.Millisecond)
	go func() { errs <- lm.Acquire(3, "a", Write) }() // closes the cycle

	select {
	case err := <-errs:
		if err != ErrDeadlock {
			t.Fatalf("err = %v, want ErrDeadlock", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("three-way deadlock not detected")
	}
	lm.ReleaseAll(1)
	lm.ReleaseAll(2)
	lm.ReleaseAll(3)
	// Drain the remaining outcomes (granted after releases, or
	// deadlock).
	for i := 0; i < 2; i++ {
		select {
		case <-errs:
		case <-time.After(2 * time.Second):
			t.Fatal("waiters not drained after releases")
		}
	}
}

// TestReleaseAllEndsQueuedWait: a transaction aborted while one of its
// acquisitions waits in a queue — a member aborts a transaction whose
// client gave up on a blocked operation — gets that acquisition failed
// with ErrTxDone. Granted later instead, the lock would belong to a
// transaction that no longer exists and nothing would ever release it.
func TestReleaseAllEndsQueuedWait(t *testing.T) {
	lm := NewLockManager(DetectDeadlock)
	if err := lm.Acquire(1, "a", Write); err != nil {
		t.Fatal(err)
	}
	waited := make(chan error, 1)
	go func() { waited <- lm.Acquire(2, "a", Read) }()
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		lm.mu.Lock()
		queued := len(lm.locks["a"].queue)
		lm.mu.Unlock()
		if queued == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("acquisition never queued")
		}
	}
	lm.ReleaseAll(2)
	select {
	case err := <-waited:
		if err != ErrTxDone {
			t.Fatalf("queued acquisition of an aborted transaction returned %v, want ErrTxDone", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("queued acquisition of an aborted transaction still waits")
	}
	lm.ReleaseAll(1)
	if _, held := lm.Held(2, "a"); held {
		t.Fatal("the aborted transaction was granted the lock")
	}
	if err := lm.Acquire(3, "a", Write); err != nil {
		t.Fatalf("lock after both released: %v", err)
	}
}
