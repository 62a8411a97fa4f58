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
