package txn

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestGetSetCommit(t *testing.T) {
	s := NewStore()
	tx := s.Begin()
	if err := tx.Set("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	v, err := tx.Get("a")
	if err != nil || string(v) != "1" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.ReadCommitted("a"); !ok || string(v) != "1" {
		t.Fatalf("committed value = %q, %v", v, ok)
	}
}

func TestAbortDiscards(t *testing.T) {
	s := NewStore()
	tx := s.Begin()
	tx.Set("a", []byte("1"))
	tx.Abort()
	if _, ok := s.ReadCommitted("a"); ok {
		t.Fatal("aborted write became visible")
	}
}

func TestDelete(t *testing.T) {
	s := NewStore()
	tx := s.Begin()
	tx.Set("a", []byte("1"))
	tx.Commit()

	tx2 := s.Begin()
	if err := tx2.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.Get("a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after tentative delete = %v, want ErrNotFound", err)
	}
	tx2.Commit()
	if _, ok := s.ReadCommitted("a"); ok {
		t.Fatal("deleted key still present")
	}
}

func TestGetMissing(t *testing.T) {
	s := NewStore()
	tx := s.Begin()
	defer tx.Abort()
	if _, err := tx.Get("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestUseAfterTermination(t *testing.T) {
	s := NewStore()
	tx := s.Begin()
	tx.Commit()
	if err := tx.Set("a", nil); !errors.Is(err, ErrTxDone) {
		t.Fatalf("Set after commit = %v", err)
	}
	if _, err := tx.Get("a"); !errors.Is(err, ErrTxDone) {
		t.Fatalf("Get after commit = %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("double commit = %v", err)
	}
	if err := tx.Abort(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("abort after commit = %v", err)
	}
}

func TestIsolationUncommittedInvisible(t *testing.T) {
	s := NewStore()
	tx := s.Begin()
	tx.Set("a", []byte("tentative"))
	if _, ok := s.ReadCommitted("a"); ok {
		t.Fatal("tentative update visible outside the transaction")
	}
	tx.Abort()
}

// TestWriteBlocksWrite: the waiter is the older transaction, so
// wait-die lets it wait.
func TestWriteBlocksWrite(t *testing.T) {
	s := NewStore()
	t2 := s.Begin()
	t1 := s.Begin()
	t1.Set("a", []byte("t1"))

	done := make(chan error, 1)
	go func() { done <- t2.Set("a", []byte("t2")) }()

	select {
	case <-done:
		t.Fatal("conflicting write proceeded while lock held")
	case <-time.After(50 * time.Millisecond):
	}
	t1.Commit()
	if err := <-done; err != nil {
		t.Fatalf("blocked write failed after release: %v", err)
	}
	t2.Commit()
	if v, _ := s.ReadCommitted("a"); string(v) != "t2" {
		t.Fatalf("final value %q, want t2 (serial order t1;t2)", v)
	}
}

func TestReadersShare(t *testing.T) {
	s := NewStore()
	seed := s.Begin()
	seed.Set("a", []byte("v"))
	seed.Commit()

	t1, t2 := s.Begin(), s.Begin()
	if _, err := t1.Get("a"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := t2.Get("a")
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("concurrent read failed: %v", err)
		}
	case <-time.After(500 * time.Millisecond):
		t.Fatal("read lock blocked a concurrent reader")
	}
	t1.Commit()
	t2.Commit()
}

// TestWaitDieTwoWayCycle: t1 and t2 each hold a lock and ask for the
// other's. The older t1 waits; the younger t2, whose request would
// close the cycle, dies at once, and its abort lets t1 through.
func TestWaitDieTwoWayCycle(t *testing.T) {
	s := NewStore()
	t1, t2 := s.Begin(), s.Begin()
	if err := t1.Set("a", nil); err != nil {
		t.Fatal(err)
	}
	if err := t2.Set("b", nil); err != nil {
		t.Fatal(err)
	}

	got1 := make(chan error, 1)
	go func() { got1 <- t1.Set("b", nil) }()
	queued(t, s.lm, "b", 1)
	if err := t2.Set("a", nil); !errors.Is(err, ErrWaitDie) {
		t.Fatalf("younger t2 = %v, want ErrWaitDie", err)
	}
	t2.Abort()
	select {
	case err := <-got1:
		if err != nil {
			t.Fatalf("older t1 after the victim aborted: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("older t1 still blocked after the victim aborted")
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestUpgradeDeadlock: two readers upgrading to writers is the classic
// 2PL deadlock. The younger dies; the older waits for it, then
// commits.
func TestUpgradeDeadlock(t *testing.T) {
	s := NewStore()
	seed := s.Begin()
	seed.Set("a", []byte("v"))
	seed.Commit()

	t1, t2 := s.Begin(), s.Begin()
	if _, err := t1.Get("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := t2.Get("a"); err != nil {
		t.Fatal(err)
	}
	got1 := make(chan error, 1)
	go func() { got1 <- t1.Set("a", []byte("t1")) }()
	queued(t, s.lm, "a", 1)
	if err := t2.Set("a", []byte("t2")); !errors.Is(err, ErrWaitDie) {
		t.Fatalf("younger upgrade = %v, want ErrWaitDie", err)
	}
	t2.Abort()
	select {
	case err := <-got1:
		if err != nil {
			t.Fatalf("older upgrade: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("older upgrade still blocked after the younger aborted")
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.ReadCommitted("a"); string(v) != "t1" {
		t.Fatalf("a = %q, want t1", v)
	}
}

func TestWaitDiePolicy(t *testing.T) {
	s := NewStore()
	older := s.Begin() // smaller ID = older
	younger := s.Begin()
	if err := older.Set("a", nil); err != nil {
		t.Fatal(err)
	}
	// The younger transaction must die rather than wait.
	if err := younger.Set("a", nil); !errors.Is(err, ErrWaitDie) {
		t.Fatalf("younger wait = %v, want ErrWaitDie", err)
	}
	younger.Abort()
	older.Commit()
}

func TestWaitDieOlderWaits(t *testing.T) {
	s := NewStore()
	first := s.Begin()
	second := s.Begin()
	if err := second.Set("a", nil); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- first.Set("a", nil) }()
	select {
	case err := <-done:
		t.Fatalf("older transaction did not wait: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	second.Commit()
	if err := <-done; err != nil {
		t.Fatalf("older transaction failed after release: %v", err)
	}
	first.Commit()
}

func TestNestedCommitFoldsIntoParent(t *testing.T) {
	s := NewStore()
	parent := s.Begin()
	parent.Set("p", []byte("1"))

	child, err := parent.Begin()
	if err != nil {
		t.Fatal(err)
	}
	// Child sees the parent's tentative update (§2.3.2).
	if v, err := child.Get("p"); err != nil || string(v) != "1" {
		t.Fatalf("child read of parent write: %q, %v", v, err)
	}
	child.Set("c", []byte("2"))
	if err := child.Commit(); err != nil {
		t.Fatal(err)
	}
	// Child's update visible to parent, not to the store.
	if v, err := parent.Get("c"); err != nil || string(v) != "2" {
		t.Fatalf("parent read of committed child write: %q, %v", v, err)
	}
	if _, ok := s.ReadCommitted("c"); ok {
		t.Fatal("child commit leaked to store before top-level commit")
	}
	parent.Commit()
	if v, ok := s.ReadCommitted("c"); !ok || string(v) != "2" {
		t.Fatalf("store after top-level commit: %q, %v", v, ok)
	}
}

func TestNestedAbortDiscardsOnlyChild(t *testing.T) {
	s := NewStore()
	parent := s.Begin()
	parent.Set("p", []byte("1"))
	child, _ := parent.Begin()
	child.Set("c", []byte("2"))
	child.Abort()
	if _, err := parent.Get("c"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("aborted child write visible to parent: %v", err)
	}
	if v, err := parent.Get("p"); err != nil || string(v) != "1" {
		t.Fatalf("parent write damaged by child abort: %q %v", v, err)
	}
	parent.Commit()
}

func TestOpenSubtransactionGuards(t *testing.T) {
	s := NewStore()
	parent := s.Begin()
	child, _ := parent.Begin()
	if _, err := parent.Begin(); err == nil {
		t.Fatal("second open subtransaction allowed")
	}
	if err := parent.Commit(); err == nil {
		t.Fatal("parent committed with open subtransaction")
	}
	child.Commit()
	if err := parent.Commit(); err != nil {
		t.Fatalf("commit after child closed: %v", err)
	}
}

func TestNestedDepth(t *testing.T) {
	s := NewStore()
	top := s.Begin()
	cur := top
	for i := 0; i < 5; i++ {
		child, err := cur.Begin()
		if err != nil {
			t.Fatalf("depth %d: %v", i, err)
		}
		child.Set(fmt.Sprintf("k%d", i), []byte{byte(i)})
		cur = child
	}
	for cur != top {
		parent := cur.parent
		if err := cur.Commit(); err != nil {
			t.Fatal(err)
		}
		cur = parent
	}
	top.Commit()
	for i := 0; i < 5; i++ {
		if _, ok := s.ReadCommitted(fmt.Sprintf("k%d", i)); !ok {
			t.Fatalf("k%d lost", i)
		}
	}
}

func TestRunRetriesDeadlocks(t *testing.T) {
	s := NewStore()
	seed := s.Begin()
	seed.Set("x", []byte{0})
	seed.Set("y", []byte{0})
	seed.Commit()

	// Two workers increment x and y in opposite orders: a deadlock
	// factory, which wait-die turns into aborts. Run's retry with
	// back-off must get both through.
	inc := func(first, second string) func(tx *Tx) error {
		return func(tx *Tx) error {
			a, err := tx.Get(first)
			if err != nil {
				return err
			}
			if err := tx.Set(first, []byte{a[0] + 1}); err != nil {
				return err
			}
			b, err := tx.Get(second)
			if err != nil {
				return err
			}
			return tx.Set(second, []byte{b[0] + 1})
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	opts := RetryOptions{MaxAttempts: 50, BaseDelay: time.Millisecond}
	for i := 0; i < 10; i++ {
		wg.Add(2)
		go func() { defer wg.Done(); errs[0] = s.Run(opts, inc("x", "y")) }()
		go func() { defer wg.Done(); errs[1] = s.Run(opts, inc("y", "x")) }()
		wg.Wait()
		if errs[0] != nil || errs[1] != nil {
			t.Fatalf("round %d: %v, %v", i, errs[0], errs[1])
		}
	}
	x, _ := s.ReadCommitted("x")
	y, _ := s.ReadCommitted("y")
	if x[0] != 20 || y[0] != 20 {
		t.Fatalf("x=%d y=%d, want 20,20 (lost updates)", x[0], y[0])
	}
}

func TestRunPropagatesAppError(t *testing.T) {
	s := NewStore()
	boom := errors.New("boom")
	err := s.Run(RetryOptions{}, func(tx *Tx) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

// TestSerializabilityCounter: concurrent read-modify-write increments
// must never lose an update under 2PL.
func TestSerializabilityCounter(t *testing.T) {
	s := NewStore()
	seed := s.Begin()
	seed.Set("n", []byte{0, 0})
	seed.Commit()

	const workers, perWorker = 8, 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				err := s.Run(RetryOptions{MaxAttempts: 200, Rand: rng}, func(tx *Tx) error {
					v, err := tx.Get("n")
					if err != nil {
						return err
					}
					n := int(v[0])<<8 | int(v[1])
					n++
					return tx.Set("n", []byte{byte(n >> 8), byte(n)})
				})
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
				}
			}
		}(w)
	}
	wg.Wait()
	v, _ := s.ReadCommitted("n")
	n := int(v[0])<<8 | int(v[1])
	if n != workers*perWorker {
		t.Fatalf("counter = %d, want %d", n, workers*perWorker)
	}
}

func TestKeys(t *testing.T) {
	s := NewStore()
	tx := s.Begin()
	tx.Set("a", nil)
	tx.Set("b", nil)
	tx.Commit()
	if len(s.Keys()) != 2 {
		t.Fatalf("Keys = %v", s.Keys())
	}
}

// Property: committed state equals a serial replay of the committed
// transactions' writes in commit order (single-writer sanity).
func TestQuickSerialEquivalence(t *testing.T) {
	f := func(ops []struct {
		Key byte
		Val byte
	}) bool {
		s := NewStore()
		shadow := map[string][]byte{}
		for _, op := range ops {
			k := string([]byte{'k', op.Key % 4})
			err := s.Run(RetryOptions{}, func(tx *Tx) error {
				return tx.Set(k, []byte{op.Val})
			})
			if err != nil {
				return false
			}
			shadow[k] = []byte{op.Val}
		}
		for k, want := range shadow {
			got, ok := s.ReadCommitted(k)
			if !ok || !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
