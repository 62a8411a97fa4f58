package kv

import (
	"strconv"
	"strings"
	"testing"

	"circus/internal/wal"
)

// TestInMemoryTailBounded: an in-memory store, which never snapshots,
// still keeps at most maxTail apply-order entries; its position stays
// exact, the retained suffix still serves deltas, and a suffix from
// before the dropped prefix is refused (a full transfer instead).
func TestInMemoryTailBounded(t *testing.T) {
	s := New()
	const n = 3*maxTail + 17
	for i := 0; i < n; i++ {
		if _, err := s.Write([]Pair{{Key: strconv.Itoa(i), Val: "v"}}); err != nil {
			t.Fatal(err)
		}
		if len(s.order) > maxTail {
			t.Fatalf("after %d puts the apply-order log holds %d entries, want <= %d", i+1, len(s.order), maxTail)
		}
	}
	if got := s.Position(); got != n {
		t.Fatalf("Position = %d, want %d", got, n)
	}
	if _, err := s.DumpSince(0); err == nil {
		t.Fatal("DumpSince(0) served a dropped prefix")
	}
	dump, err := s.DumpSince(n - 10)
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := DecodePairs(dump)
	if err != nil || len(pairs) != 10 || pairs[9].Key != strconv.Itoa(n-1) {
		t.Fatalf("DumpSince(n-10) = %v, %v; want the last 10 puts", pairs, err)
	}
}

// TestRetryAfterFailedFsyncIsDurable: a put whose fsync failed left its
// redo record appended and its state applied, so the retry changes
// nothing; it must still wait until that record is durable before it
// returns nil, or a power loss would lose an acknowledged write.
func TestRetryAfterFailedFsyncIsDurable(t *testing.T) {
	disk := wal.NewMemFS(3)
	log, rec, err := wal.Open(wal.Options{FS: disk})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(log, rec)
	if err != nil {
		t.Fatal(err)
	}
	put := []Pair{{Key: "k", Val: strings.Repeat("v", 64)}}
	disk.FailSyncs(true)
	if _, err := s.Write(put); err == nil {
		t.Fatal("put acknowledged under a failing fsync")
	}
	disk.FailSyncs(false)
	if _, err := s.Write(put); err != nil {
		t.Fatalf("retry: %v", err)
	}
	disk.Crash()
	disk.Restart()
	if err := s.Restart(); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Get("k"); !ok || v != put[0].Val {
		t.Fatalf("k = %q, %v after a power loss; the retry acknowledged %q", v, ok, put[0].Val)
	}

	// Right after a restart everything in the log is durable, so a put
	// that changes nothing returns without an fsync: it succeeds even
	// though every fsync now fails.
	disk.FailSyncs(true)
	if _, err := s.Write(put); err != nil {
		t.Fatalf("no-change put after a restart: %v", err)
	}
}
