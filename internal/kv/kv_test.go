package kv

import (
	"strconv"
	"testing"
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
