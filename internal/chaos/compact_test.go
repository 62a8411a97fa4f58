package chaos

import (
	"fmt"
	"strings"
	"testing"

	"circus"
	"circus/internal/kv"
	"circus/internal/wal"
)

// TestCompactionRecoveryStaysLiveKeys is the log-compaction acceptance
// test: a delete-heavy workload (400 puts, 380 deletes) must leave a
// recovery image whose replay cost is O(live keys), not O(operations
// ever) — the snapshot holds only the surviving pairs, the log tail
// past it is short, and dead segments are pruned from disk.
func TestCompactionRecoveryStaysLiveKeys(t *testing.T) {
	fs := wal.NewMemFS(3)
	open := func() (*wal.Log, *wal.Recovered) {
		log, rec, err := wal.Open(wal.Options{FS: fs, SegmentBytes: 1 << 12, SnapshotEvery: 64})
		if err != nil {
			t.Fatal(err)
		}
		return log, rec
	}
	log, rec := open()
	kv, err := NewDurableKV(log, rec)
	if err != nil {
		t.Fatal(err)
	}

	const total, live = 400, 20
	for i := 0; i < total; i++ {
		if err := put(kv, kvPair{Key: fmt.Sprintf("k%03d", i), Val: fmt.Sprintf("v%03d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Sustained deletes in batches: everything but the last `live` keys.
	for lo := 0; lo < total-live; lo += 10 {
		var keys []string
		for i := lo; i < lo+10; i++ {
			keys = append(keys, fmt.Sprintf("k%03d", i))
		}
		if err := del(kv, keys); err != nil {
			t.Fatal(err)
		}
	}
	// Deleting an already-absent key (a retry after compaction) must
	// still ack cleanly.
	if err := del(kv, []string{"k000"}); err != nil {
		t.Fatalf("retried delete of absent key: %v", err)
	}
	kv.Checkpoint() // final compaction covering the tail
	wantPos := kv.Position()
	wantState := kv.Snapshot()
	if len(wantState) != live {
		t.Fatalf("live keys = %d, want %d", len(wantState), live)
	}
	if n := len(fileNames(t, fs)); n > 4 {
		t.Fatalf("disk holds %d files after compaction; dead segments were not pruned", n)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery replay cost: the image carries only live pairs, and the
	// redo tail past it is bounded by the snapshot cadence — nowhere
	// near the ~780 operations the member actually performed.
	log2, rec2 := open()
	defer log2.Close()
	if rec2.Snapshot == nil {
		t.Fatal("recovery found no snapshot")
	}
	var img struct {
		Position uint64
		Pairs    []kvPair
	}
	if err := circus.Unmarshal(rec2.Snapshot, &img); err != nil {
		t.Fatal(err)
	}
	if len(img.Pairs) != live {
		t.Fatalf("snapshot holds %d pairs, want %d live: compaction kept dead history", len(img.Pairs), live)
	}
	if len(rec2.Records) > 64 {
		t.Fatalf("recovery replays %d redo records past the snapshot, want <= snapshot cadence", len(rec2.Records))
	}
	kv2, err := NewDurableKV(log2, rec2)
	if err != nil {
		t.Fatal(err)
	}
	if got := kv2.Position(); got != wantPos {
		t.Fatalf("recovered position = %d, want %d (absolute across compaction)", got, wantPos)
	}
	got := kv2.Snapshot()
	if len(got) != live {
		t.Fatalf("recovered %d keys, want %d", len(got), live)
	}
	for k, v := range wantState {
		if got[k] != v {
			t.Fatalf("recovered %q = %q, want %q", k, got[k], v)
		}
	}
	t.Logf("recovery: %d snapshot pairs + %d tail records for %d lifetime ops",
		len(img.Pairs), len(rec2.Records), total+(total-live)/10)
}

// TestDeleteTombstonesFlowThroughDelta pins the repair-path semantics
// of deletes: tombstones ride the apply-order log, so a delta transfer
// from a peer removes the deleted keys at the receiver, and a request
// for a suffix that was compacted away is refused (which sends the
// repairman down its full-transfer path).
func TestDeleteTombstonesFlowThroughDelta(t *testing.T) {
	a, b := NewKV(), NewKV()
	for i := 0; i < 8; i++ {
		p := kvPair{Key: fmt.Sprintf("k%d", i), Val: "v"}
		if err := put(a, p); err != nil {
			t.Fatal(err)
		}
		if err := put(b, p); err != nil {
			t.Fatal(err)
		}
	}
	from := b.Position()
	if err := del(a, []string{"k1", "k3"}); err != nil {
		t.Fatal(err)
	}
	dump, err := a.DumpSince(from)
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := decodePairs(dump)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 2 || !pairs[0].Del || !pairs[1].Del {
		t.Fatalf("delta = %+v, want two tombstones", pairs)
	}
	if _, err := b.Merge(pairs); err != nil {
		t.Fatal(err)
	}
	got := b.Snapshot()
	if _, ok := got["k1"]; ok {
		t.Fatal("merge did not apply the k1 tombstone")
	}
	if _, ok := got["k3"]; ok {
		t.Fatal("merge did not apply the k3 tombstone")
	}
	if len(got) != 6 || b.Position() != a.Position() {
		t.Fatalf("after tombstone merge: %d keys at position %d, want 6 at %d",
			len(got), b.Position(), a.Position())
	}

	// A compacted member refuses suffixes below its base.
	fs := wal.NewMemFS(9)
	log, rec, err := wal.Open(wal.Options{FS: fs, SegmentBytes: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	c, err := NewDurableKV(log, rec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := put(c, kvPair{Key: fmt.Sprintf("k%d", i), Val: "v"}); err != nil {
			t.Fatal(err)
		}
	}
	c.Checkpoint()
	if _, err := c.DumpSince(5); err == nil || !strings.Contains(err.Error(), "compacted") {
		t.Fatalf("DumpSince inside the compacted prefix: err = %v, want compacted", err)
	}
	if dump, err := c.DumpSince(c.Position()); err != nil {
		t.Fatalf("DumpSince at head: %v", err)
	} else if pairs, _ := decodePairs(dump); len(pairs) != 0 {
		t.Fatalf("DumpSince at head returned %d pairs, want 0", len(pairs))
	}
}

func fileNames(t *testing.T, fs *wal.MemFS) []string {
	t.Helper()
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// Shorthands over the store's API for the tests of this package.
type kvPair = kv.Pair

var decodePairs = kv.DecodePairs

func put(s *KV, p kvPair) error {
	_, err := s.Write([]kvPair{p})
	return err
}

func del(s *KV, keys []string) error {
	batch := make([]kvPair, len(keys))
	for i, k := range keys {
		batch[i] = kvPair{Key: k, Del: true}
	}
	_, err := s.Write(batch)
	return err
}
