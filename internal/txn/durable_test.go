package txn

import (
	"fmt"
	"sync"
	"testing"

	"circus/internal/wal"
)

func openDurable(t *testing.T, mfs *wal.MemFS, snapshotEvery int) *Store {
	t.Helper()
	log, rec, err := wal.Open(wal.Options{FS: mfs, SegmentBytes: 4096, SnapshotEvery: snapshotEvery})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	s, err := OpenDurableStore(log, rec)
	if err != nil {
		t.Fatalf("OpenDurableStore: %v", err)
	}
	return s
}

func mustCommit(t *testing.T, s *Store, kv map[string]string, del ...string) {
	t.Helper()
	tx := s.Begin()
	for k, v := range kv {
		if err := tx.Set(k, []byte(v)); err != nil {
			t.Fatalf("Set: %v", err)
		}
	}
	for _, k := range del {
		if err := tx.Delete(k); err != nil {
			t.Fatalf("Delete: %v", err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
}

// powerLoss simulates losing the process and the page cache, then
// recovers the store from its own log.
func powerLoss(t *testing.T, mfs *wal.MemFS, s *Store) {
	t.Helper()
	mfs.Crash()
	mfs.Restart()
	rec, err := s.WAL().Reopen()
	if err != nil {
		t.Fatalf("Reopen: %v", err)
	}
	if err := s.Recover(rec); err != nil {
		t.Fatalf("Recover: %v", err)
	}
}

func TestDurableStoreSurvivesPowerLoss(t *testing.T) {
	mfs := wal.NewMemFS(1)
	s := openDurable(t, mfs, 0)
	mustCommit(t, s, map[string]string{"a": "1", "b": "2"})
	mustCommit(t, s, map[string]string{"b": "3"})
	mustCommit(t, s, nil, "a")

	powerLoss(t, mfs, s)

	if _, ok := s.ReadCommitted("a"); ok {
		t.Fatal("deleted key resurrected by recovery")
	}
	if v, ok := s.ReadCommitted("b"); !ok || string(v) != "3" {
		t.Fatalf("b = %q, %v after recovery; want \"3\"", v, ok)
	}
}

func TestDurableStoreUncommittedNeverRecovered(t *testing.T) {
	mfs := wal.NewMemFS(2)
	s := openDurable(t, mfs, 0)
	mustCommit(t, s, map[string]string{"committed": "yes"})
	tx := s.Begin()
	if err := tx.Set("tentative", []byte("no")); err != nil {
		t.Fatal(err)
	}
	// The transaction never commits: power loss.
	powerLoss(t, mfs, s)
	if _, ok := s.ReadCommitted("tentative"); ok {
		t.Fatal("uncommitted write recovered")
	}
	if v, ok := s.ReadCommitted("committed"); !ok || string(v) != "yes" {
		t.Fatalf("committed = %q, %v", v, ok)
	}
}

func TestDurableStoreSnapshotCompactsAndRecovers(t *testing.T) {
	mfs := wal.NewMemFS(3)
	s := openDurable(t, mfs, 10)
	for i := 0; i < 50; i++ {
		mustCommit(t, s, map[string]string{fmt.Sprintf("k%02d", i): fmt.Sprintf("v%d", i)})
	}
	if st := s.WAL().Stats(); st.Snapshots == 0 {
		t.Fatal("no snapshot taken across 50 commits with SnapshotEvery=10")
	}
	powerLoss(t, mfs, s)
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("k%02d", i)
		if v, ok := s.ReadCommitted(k); !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("%s = %q, %v after snapshot recovery", k, v, ok)
		}
	}
}

// TestDurableStoreApplyOrderMatchesLogOrder drives concurrent
// committers over the same keys and checks that replay reproduces
// memory exactly — the property the append-under-store-mutex ordering
// exists for.
func TestDurableStoreApplyOrderMatchesLogOrder(t *testing.T) {
	mfs := wal.NewMemFS(4)
	s := openDurable(t, mfs, 0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				key := fmt.Sprintf("shared-%d", i%5)
				_ = s.Run(RetryOptions{}, func(tx *Tx) error {
					return tx.Set(key, []byte(fmt.Sprintf("g%d-i%d", g, i)))
				})
			}
		}(g)
	}
	wg.Wait()

	before := make(map[string]string)
	for _, k := range s.Keys() {
		v, _ := s.ReadCommitted(k)
		before[k] = string(v)
	}

	powerLoss(t, mfs, s)

	for k, want := range before {
		if v, ok := s.ReadCommitted(k); !ok || string(v) != want {
			t.Fatalf("%s = %q, %v after replay; memory had %q", k, v, ok, want)
		}
	}
	if got := len(s.Keys()); got != len(before) {
		t.Fatalf("recovered %d keys, memory had %d", got, len(before))
	}
}

func TestDurableStoreFsyncFailureFailsCommit(t *testing.T) {
	mfs := wal.NewMemFS(5)
	s := openDurable(t, mfs, 0)
	mustCommit(t, s, map[string]string{"a": "1"})
	mfs.FailSyncs(true)
	tx := s.Begin()
	if err := tx.Set("b", []byte("2")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err == nil {
		t.Fatal("Commit acknowledged under failing fsync")
	}
	mfs.FailSyncs(false)
	// The store is not wedged: later commits succeed and recovery
	// holds every acknowledged write.
	mustCommit(t, s, map[string]string{"c": "3"})
	powerLoss(t, mfs, s)
	if v, ok := s.ReadCommitted("a"); !ok || string(v) != "1" {
		t.Fatalf("a = %q, %v", v, ok)
	}
	if v, ok := s.ReadCommitted("c"); !ok || string(v) != "3" {
		t.Fatalf("c = %q, %v", v, ok)
	}
}

// TestDurableStoreFailedAppendUndoesCommit: when the redo record
// cannot be appended (a full disk), the commit fails and leaves no
// trace — neither its writes nor a position advance — since nothing on
// disk could restore them after a crash.
func TestDurableStoreFailedAppendUndoesCommit(t *testing.T) {
	mfs := wal.NewMemFS(6)
	s := openDurable(t, mfs, 0)
	mustCommit(t, s, map[string]string{"a": "1"})
	pos := s.Position()
	mfs.FillDisk()
	tx := s.Begin()
	if err := tx.Set("a", []byte("2")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Set("b", []byte("2")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err == nil {
		t.Fatal("Commit acknowledged on a full disk")
	}
	if v, ok := s.ReadCommitted("b"); ok {
		t.Fatalf("b = %q visible after its commit failed", v)
	}
	if v, ok := s.ReadCommitted("a"); !ok || string(v) != "1" {
		t.Fatalf("a = %q, %v after a failed overwrite; want \"1\"", v, ok)
	}
	if got := s.Position(); got != pos {
		t.Fatalf("Position = %d after a failed commit, want %d", got, pos)
	}
	mfs.SetQuota(0)
	mustCommit(t, s, map[string]string{"c": "3"})
	powerLoss(t, mfs, s)
	if v, ok := s.ReadCommitted("c"); !ok || string(v) != "3" {
		t.Fatalf("c = %q, %v after recovery", v, ok)
	}
}

// TestDurableSetStateSurvivesPowerLoss: state a durable member
// received by transfer (§6.4.1) is logged like a commit, so the member
// still holds it after a power loss.
func TestDurableSetStateSurvivesPowerLoss(t *testing.T) {
	src := NewStore()
	mustCommit(t, src, map[string]string{"x": "1", "y": "2"})
	state, err := NewStoreModule(src, 0).GetState()
	if err != nil {
		t.Fatal(err)
	}
	mfs := wal.NewMemFS(7)
	s := openDurable(t, mfs, 0)
	if err := NewStoreModule(s, 0).SetState(state); err != nil {
		t.Fatal(err)
	}
	powerLoss(t, mfs, s)
	for k, want := range map[string]string{"x": "1", "y": "2"} {
		if v, ok := s.ReadCommitted(k); !ok || string(v) != want {
			t.Fatalf("%s = %q, %v after recovery; want %q", k, v, ok, want)
		}
	}
}
