package txn

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

func TestLockReentrant(t *testing.T) {
	lm := NewLockManager()
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

// TestWriterNotStarvedByReaders: each waiter is older than what it
// waits for, so wait-die lets it wait.
func TestWriterNotStarvedByReaders(t *testing.T) {
	lm := NewLockManager()
	if err := lm.Acquire(3, "a", Read); err != nil {
		t.Fatal(err)
	}
	// A writer queues.
	wDone := make(chan error, 1)
	go func() { wDone <- lm.Acquire(2, "a", Write) }()
	time.Sleep(20 * time.Millisecond)
	// A later reader must not overtake the queued writer.
	rDone := make(chan error, 1)
	go func() { rDone <- lm.Acquire(1, "a", Read) }()
	select {
	case <-rDone:
		t.Fatal("reader overtook a queued writer")
	case <-time.After(50 * time.Millisecond):
	}
	lm.ReleaseAll(3)
	if err := <-wDone; err != nil {
		t.Fatalf("writer: %v", err)
	}
	lm.ReleaseAll(2)
	if err := <-rDone; err != nil {
		t.Fatalf("reader after writer: %v", err)
	}
	lm.ReleaseAll(1)
}

// TestLockLivenessUnderRandomLoad: N workers run random acquire
// sequences; wait-die victims release and retry. The system must
// drain — no lost wakeups, no permanent wedge.
func TestLockLivenessUnderRandomLoad(t *testing.T) {
	lm := NewLockManager()
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
						break // wait-die: abort
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
		t.Fatal("lock manager wedged under random load")
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

// TestWaitDieBehindGrantedWaiter: a waiter passed over when the lock
// goes to the one queued ahead of it now waits for that one, though it
// queued before that one held anything. Here that leaves a younger
// transaction waiting for an older one, which wait-die forbids; it
// must die then, as it would had it asked then.
func TestWaitDieBehindGrantedWaiter(t *testing.T) {
	lm := NewLockManager()
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

// TestWaitDieThreeWayCycle: T1, T2 and T3 each hold a lock and ask
// for the next one's, T3 for T1's last. The older two wait; T3, whose
// request would close the cycle, is the youngest and dies at once.
// Its release lets the others finish in turn.
func TestWaitDieThreeWayCycle(t *testing.T) {
	lm := NewLockManager()
	lm.Acquire(1, "a", Write)
	lm.Acquire(2, "b", Write)
	lm.Acquire(3, "c", Write)

	got1, got2 := make(chan error, 1), make(chan error, 1)
	go func() { got1 <- lm.Acquire(1, "b", Write) }()
	queued(t, lm, "b", 1)
	go func() { got2 <- lm.Acquire(2, "c", Write) }()
	queued(t, lm, "c", 1)
	if err := lm.Acquire(3, "a", Write); err != ErrWaitDie {
		t.Fatalf("Acquire(3, a) = %v, want ErrWaitDie", err)
	}

	lm.ReleaseAll(3) // the victim aborts; T2 gets c
	select {
	case err := <-got2:
		if err != nil {
			t.Fatalf("T2 not granted c: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("T2 still waits after T3 released c")
	}
	lm.ReleaseAll(2) // T2 commits; T1 gets b
	select {
	case err := <-got1:
		if err != nil {
			t.Fatalf("T1 not granted b: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("T1 still waits after T2 released b")
	}
	lm.ReleaseAll(1)
}

// TestReleaseAllEndsQueuedWait: a transaction aborted while one of its
// acquisitions waits in a queue — a member aborts a transaction whose
// client gave up on a blocked operation — gets that acquisition failed
// with ErrTxDone. Granted later instead, the lock would belong to a
// transaction that no longer exists and nothing would ever release it.
func TestReleaseAllEndsQueuedWait(t *testing.T) {
	lm := NewLockManager()
	if err := lm.Acquire(2, "a", Write); err != nil {
		t.Fatal(err)
	}
	waited := make(chan error, 1)
	go func() { waited <- lm.Acquire(1, "a", Read) }()
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
	lm.ReleaseAll(1)
	select {
	case err := <-waited:
		if err != ErrTxDone {
			t.Fatalf("queued acquisition of an aborted transaction returned %v, want ErrTxDone", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("queued acquisition of an aborted transaction still waits")
	}
	lm.ReleaseAll(2)
	if _, held := lm.Held(1, "a"); held {
		t.Fatal("the aborted transaction was granted the lock")
	}
	if err := lm.Acquire(3, "a", Write); err != nil {
		t.Fatalf("lock after both released: %v", err)
	}
}
