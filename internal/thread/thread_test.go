package thread

import (
	"context"
	"reflect"
	"sync"
	"testing"
)

func TestRootPaths(t *testing.T) {
	c := NewRoot(ID{Host: 1, Proc: 2})
	if got := c.NextCallPath(); !reflect.DeepEqual(got, []uint32{1}) {
		t.Fatalf("first path = %v, want [1]", got)
	}
	if got := c.NextCallPath(); !reflect.DeepEqual(got, []uint32{2}) {
		t.Fatalf("second path = %v, want [2]", got)
	}
}

func TestChildExtendsPath(t *testing.T) {
	c := Child(ID{Host: 1, Proc: 2}, []uint32{3, 1})
	if got := c.NextCallPath(); !reflect.DeepEqual(got, []uint32{3, 1, 1}) {
		t.Fatalf("nested path = %v, want [3 1 1]", got)
	}
	if c.ID() != (ID{Host: 1, Proc: 2}) {
		t.Fatalf("thread ID not propagated: %v", c.ID())
	}
}

func TestChildCopiesPath(t *testing.T) {
	path := []uint32{5}
	c := Child(ID{}, path)
	path[0] = 99
	if got := c.NextCallPath(); !reflect.DeepEqual(got, []uint32{5, 1}) {
		t.Fatalf("child shares caller's slice: %v", got)
	}
}

func TestDeterministicReplicas(t *testing.T) {
	// Two replicas executing the same frame must allocate identical
	// call paths — the property §4.3.2's matching depends on.
	a := Child(ID{Host: 9, Proc: 1}, []uint32{4})
	b := Child(ID{Host: 9, Proc: 1}, []uint32{4})
	for i := 0; i < 10; i++ {
		pa, pb := a.NextCallPath(), b.NextCallPath()
		if !reflect.DeepEqual(pa, pb) {
			t.Fatalf("replica paths diverged: %v vs %v", pa, pb)
		}
	}
}

func TestPathKeyDistinguishes(t *testing.T) {
	id1 := ID{Host: 1, Proc: 1}
	id2 := ID{Host: 1, Proc: 2}
	seen := map[string]bool{
		PathKey(id1, []uint32{1}):    true,
		PathKey(id1, []uint32{2}):    true,
		PathKey(id1, []uint32{1, 1}): true,
		PathKey(id2, []uint32{1}):    true,
	}
	if len(seen) != 4 {
		t.Fatalf("PathKey collisions: %d distinct of 4", len(seen))
	}
	if PathKey(id1, []uint32{7}) != PathKey(id1, []uint32{7}) {
		t.Fatal("PathKey not stable")
	}
	// The key is the ID and path as big-endian words, also for a path
	// too long for the stack buffer.
	long := make([]uint32, 20)
	want := "\x00\x00\x00\x01\x00\x00\x00\x02"
	for i := range long {
		long[i] = uint32(i) << 8
		want += string([]byte{0, 0, byte(i), 0})
	}
	if got := PathKey(id2, long); got != want {
		t.Fatalf("PathKey = %x, want %x", got, want)
	}
	if n := testing.AllocsPerRun(100, func() { _ = PathKey(id1, []uint32{1, 2, 3}) }); n > 1 {
		t.Fatalf("PathKey: %v allocations, want 1", n)
	}
}

func TestContextPropagation(t *testing.T) {
	tc := NewRoot(ID{Host: 3, Proc: 4})
	ctx := NewContext(context.Background(), tc)
	if got := FromContext(ctx); got != tc {
		t.Fatalf("FromContext = %v, want %v", got, tc)
	}
	if got := FromContext(context.Background()); got != nil {
		t.Fatalf("FromContext(empty) = %v, want nil", got)
	}
}

func TestConcurrentNextCallPath(t *testing.T) {
	c := NewRoot(ID{Host: 1, Proc: 1})
	const n = 64
	var wg sync.WaitGroup
	paths := make(chan uint32, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := c.NextCallPath()
			paths <- p[0]
		}()
	}
	wg.Wait()
	close(paths)
	seen := map[uint32]bool{}
	for p := range paths {
		if seen[p] {
			t.Fatalf("duplicate call number %d", p)
		}
		seen[p] = true
	}
}
