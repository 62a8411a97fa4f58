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

// TestBitsBlocks: keys on either side of a 64-key block boundary, and
// the uint32 wrap, are distinct records.
func TestBitsBlocks(t *testing.T) {
	var b Bits // the zero value is ready
	if _, ok := b.Has(0); ok || b.Len() != 0 {
		t.Fatal("zero set is not empty")
	}
	keys := []uint64{63, 64, 0xFFFFFFFF}
	for _, k := range keys {
		b.Put(k)
	}
	for _, k := range keys {
		if age, ok := b.Has(k); !ok || age != 0 {
			t.Fatalf("Has(%#x) = %d, %v", k, age, ok)
		}
	}
	for _, k := range []uint64{0, 62, 65, 127, 0xFFFFFFFE, 0x100000000, 1<<32 | 63} {
		if _, ok := b.Has(k); ok {
			t.Fatalf("Has(%#x) without a Put", k)
		}
	}
	if b.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", b.Len(), len(keys))
	}
}

// TestBitsGenerations: a key's bit in an older generation is found
// while a newer generation holds other keys of its block, a key put
// again is answered from the newer generation, and every record is
// gone after exactly Generations rotations.
func TestBitsGenerations(t *testing.T) {
	var b Bits
	b.Put(130) // block 2
	b.Rotate()
	b.Put(131) // block 2 again, newer generation
	b.Put(5)
	if age, ok := b.Has(130); !ok || age != 1 {
		t.Fatalf("Has(130) = %d, %v: the older bit is hidden by its block's newer entry", age, ok)
	}
	if age, ok := b.Has(131); !ok || age != 0 {
		t.Fatalf("Has(131) = %d, %v", age, ok)
	}
	b.Put(130)
	if age, ok := b.Has(130); !ok || age != 0 {
		t.Fatalf("Has(130) after a second Put = %d, %v, want age 0", age, ok)
	}
	if b.Len() != 4 { // 130 in two generations, as Table counts it
		t.Fatalf("Len = %d, want 4", b.Len())
	}
	for r := 1; r <= Generations; r++ {
		b.Rotate()
		_, ok := b.Has(131)
		if want := r < Generations; ok != want {
			t.Fatalf("after %d rotations Has(131) = %v, want %v", r, ok, want)
		}
	}
	if b.Len() != 0 {
		t.Fatalf("Len = %d after every generation was dropped", b.Len())
	}
}

// TestBitsLenIsPopcount: Len counts bits, not blocks.
func TestBitsLenIsPopcount(t *testing.T) {
	var b Bits
	for k := uint64(1000); k < 1000+200; k++ {
		b.Put(k)
		b.Put(k) // idempotent within a generation
	}
	b.Rotate()
	for k := uint64(0); k < 64; k += 2 {
		b.Put(k)
	}
	if b.Len() != 200+32 {
		t.Fatalf("Len = %d, want %d", b.Len(), 200+32)
	}
}

// FuzzBitsMatchesTable applies one decoded sequence of Put, Has and
// Rotate to a Bits and to a Table, the oracle, and compares every
// answer. Each input byte is one operation: the top two bits pick it,
// the low six pick a key from a small alphabet that straddles block
// boundaries and the 32-bit line.
func FuzzBitsMatchesTable(f *testing.F) {
	f.Add([]byte{0x00, 0x41, 0x01, 0x81, 0x40, 0x02, 0xC0, 0x42, 0x7F})
	f.Add([]byte{0x3F, 0x7F, 0xBF, 0xBF, 0xBF, 0x7F, 0x3F, 0x7F})
	f.Add([]byte{0x10, 0x11, 0x12, 0x80, 0x13, 0x80, 0x50, 0x51, 0x53, 0x80, 0x52, 0x53})
	keys := func(i byte) uint64 {
		bases := [...]uint64{0, 60, 0xFFFFFFC0, 1<<32 | 0x80000000}
		return bases[i>>4] + uint64(i&15)*3
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		var b Bits
		var tab Table[uint64, struct{}]
		for i, op := range ops {
			k := keys(op & 63)
			switch op >> 6 {
			case 0:
				b.Put(k)
				tab.Put(k, struct{}{})
			case 1, 3:
				age, ok := b.Has(k)
				_, wantAge, want := tab.Get(k)
				if ok != want || age != wantAge {
					t.Fatalf("op %d: Has(%#x) = %d, %v; Table says %d, %v", i, k, age, ok, wantAge, want)
				}
			case 2:
				b.Rotate()
				tab.Rotate()
			}
			if b.Len() != tab.Len() {
				t.Fatalf("op %d: Len = %d, Table's %d", i, b.Len(), tab.Len())
			}
		}
	})
}
