// Package tomb holds what a protocol layer must remember about work it
// has finished — completed calls (core, §4.3.4) and completed message
// exchanges (pairedmsg, §4.2.4) — in time-rotated generations instead
// of per-record timestamps. The owner rotates every half retention
// window; a record goes into the newest generation and is dropped with
// it on the third rotation after, so it lives between 1 and 1.5
// windows, expiry never walks the records, and nothing reads a clock
// per record. With pointer-free K and V the collector does not scan
// the records either.
package tomb

import "math/bits"

// Generations is how many generations a Table keeps. Owners that store
// per-generation data beside the table (core's result slabs) keep an
// array of this length and shift it when they call Rotate.
const Generations = 3

// Table is a generational map. The zero value is empty and ready; it
// is not safe for concurrent use — it lives behind its owner's lock.
type Table[K comparable, V any] struct {
	gens [Generations]map[K]V // gens[0] is the newest
}

// Put records k in the newest generation.
func (t *Table[K, V]) Put(k K, v V) {
	if t.gens[0] == nil {
		t.gens[0] = make(map[K]V)
	}
	t.gens[0][k] = v
}

// Get returns k's record and the age of the generation holding it:
// 0 for the newest, Generations-1 for the next to expire.
func (t *Table[K, V]) Get(k K) (v V, age int, ok bool) {
	for age, g := range t.gens {
		if v, ok = g[k]; ok {
			return v, age, true
		}
	}
	return v, 0, false
}

// Rotate drops the oldest generation and opens a new one.
func (t *Table[K, V]) Rotate() {
	copy(t.gens[1:], t.gens[:])
	t.gens[0] = nil
}

// Len is the number of records held.
func (t *Table[K, V]) Len() int {
	n := 0
	for _, g := range t.gens {
		n += len(g)
	}
	return n
}

// Bits is a generational set of uint64 keys, a Table of 64-bit masks
// keyed by k>>6: keys differing only in their low six bits share one
// map entry, and a record costs one bit. The zero value is empty and
// ready; it is not safe for concurrent use.
type Bits struct{ t Table[uint64, uint64] }

// Put records k in the newest generation.
func (b *Bits) Put(k uint64) { b.t.Put(k>>6, b.t.gens[0][k>>6]|1<<(k&63)) }

// Has reports whether k is recorded, with its age as Table.Get has it.
func (b *Bits) Has(k uint64) (age int, ok bool) {
	for age, g := range b.t.gens {
		if g[k>>6]&(1<<(k&63)) != 0 {
			return age, true
		}
	}
	return 0, false
}

// Rotate drops the oldest generation and opens a new one.
func (b *Bits) Rotate() { b.t.Rotate() }

// Len is the number of records held: the popcount of every mask.
func (b *Bits) Len() int {
	n := 0
	for _, g := range b.t.gens {
		for _, m := range g {
			n += bits.OnesCount64(m)
		}
	}
	return n
}

// Blocks is the number of masks the records occupy.
func (b *Bits) Blocks() int { return b.t.Len() }
