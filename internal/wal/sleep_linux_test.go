package wal

import (
	"os"
	"slices"
	"testing"
	"time"
)

// TestSyncDelayPrecise checks that a MemFS sync takes the delay it is
// configured with even when every processor is idle, where a plain
// time.Sleep of 100 µs takes about a millisecond, and that the timerfds
// behind it are shared, not one per MemFS.
func TestSyncDelayPrecise(t *testing.T) {
	const delay, syncs = 100 * time.Microsecond, 200
	mfs := NewMemFS(1)
	mfs.SetSyncDelay(delay)
	f, err := mfs.Create("log")
	if err != nil {
		t.Fatal(err)
	}
	took := make([]time.Duration, syncs)
	for i := range took {
		start := time.Now()
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		took[i] = time.Since(start)
		if took[i] < delay {
			t.Fatalf("sync %d took %v, less than its %v delay", i, took[i], delay)
		}
	}
	slices.Sort(took)
	t.Logf("%d syncs with a %v delay: p50 %v, p90 %v", syncs, delay, took[syncs/2], took[syncs*9/10])
	if p50 := took[syncs/2]; p50 >= 300*time.Microsecond {
		t.Errorf("p50 sync took %v with a %v delay, want < 300µs", p50, delay)
	}

	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skip("no /proc/self/fd")
		}
		return len(ents)
	}
	before := fds()
	for i := 0; i < 100; i++ {
		m := NewMemFS(int64(i))
		m.SetSyncDelay(delay)
		f, err := m.Create("log")
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if after := fds(); after > before+1 {
		t.Errorf("open fds %d -> %d after 100 MemFSes", before, after)
	}
}
