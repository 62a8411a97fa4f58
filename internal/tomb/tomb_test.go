package tomb

import "testing"

func TestTableGenerations(t *testing.T) {
	var tab Table[uint32, uint8]
	if _, _, ok := tab.Get(1); ok || tab.Len() != 0 {
		t.Fatal("zero table is not empty")
	}
	// One record per generation: key k goes in, then the table rotates.
	for k := uint32(0); k < Generations; k++ {
		if k > 0 {
			tab.Rotate()
		}
		tab.Put(k, uint8(10+k))
	}
	for k := uint32(0); k < Generations; k++ {
		v, age, ok := tab.Get(k)
		if !ok || v != uint8(10+k) || age != int(Generations-1-k) {
			t.Fatalf("Get(%d) = %d, age %d, %v", k, v, age, ok)
		}
	}
	if tab.Len() != Generations {
		t.Fatalf("Len = %d", tab.Len())
	}
	// Each further rotation drops exactly the oldest record.
	for k := uint32(0); k < Generations; k++ {
		tab.Rotate()
		if _, _, ok := tab.Get(k); ok {
			t.Fatalf("record %d survived %d rotations", k, Generations)
		}
		if want := Generations - 1 - int(k); tab.Len() != want {
			t.Fatalf("Len = %d after dropping record %d, want %d", tab.Len(), k, want)
		}
	}
}

// A key put again while an older generation still holds it is answered
// from the newer record.
func TestTableNewestWins(t *testing.T) {
	var tab Table[string, int]
	tab.Put("k", 1)
	tab.Rotate()
	tab.Put("k", 2)
	if v, age, ok := tab.Get("k"); !ok || v != 2 || age != 0 {
		t.Fatalf("Get = %d, age %d, %v", v, age, ok)
	}
}
