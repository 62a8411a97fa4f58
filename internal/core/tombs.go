package core

import "circus/internal/tomb"

// callKeyLen covers a collation key (appendCallKey) whose call path
// has up to five components.
const callKeyLen = 31

// callKey is a collation key held inline, so that it is pointer-free:
// the key's exact bytes, never a hash of them, since two calls that
// collided would be answered with each other's results.
type callKey struct {
	n uint8
	b [callKeyLen]byte
}

func inlineKey(key []byte) (k callKey) {
	k.n = uint8(len(key))
	copy(k.b[:], key)
	return k
}

// slabMax is the largest return message copied into the slab; a larger
// one stays the slice it already is.
const slabMax = 1024

// tombstone is what remains of a finished call (§4.3.4): the status
// word and where its n-byte encoded return message sits in its
// generation's results — slab[off:off+n], or large[off] if n > slabMax.
type tombstone struct {
	off    uint64
	n      uint32
	status uint16
}

type results struct {
	slab  []byte
	large [][]byte
}

// tombTable is the finished half of the many-to-one collation table,
// guarded by Runtime.callMu; deep serves call paths too long for callKey.
type tombTable struct {
	inline tomb.Table[callKey, tombstone]
	deep   tomb.Table[string, tombstone]
	res    [tomb.Generations]results // res[age] belongs to generation age
}

// put buries a finished call under its collation key.
func (t *tombTable) put(key []byte, status uint16, encoded []byte) {
	r := &t.res[0]
	ts := tombstone{off: uint64(len(r.slab)), n: uint32(len(encoded)), status: status}
	if ts.n > slabMax {
		ts.off = uint64(len(r.large))
		r.large = append(r.large, encoded)
	} else {
		r.slab = append(r.slab, encoded...)
	}
	if len(key) <= callKeyLen {
		t.inline.Put(inlineKey(key), ts)
	} else {
		t.deep.Put(string(key), ts)
	}
}

// get returns the buffered return message of a finished call. The
// bytes stay valid after callMu is released: a slab is only ever
// appended to, and rotation drops a generation without reusing it.
func (t *tombTable) get(key []byte) (status uint16, encoded []byte, ok bool) {
	var (
		ts  tombstone
		age int
	)
	if len(key) <= callKeyLen {
		ts, age, ok = t.inline.Get(inlineKey(key))
	} else {
		ts, age, ok = t.deep.Get(string(key))
	}
	if !ok {
		return 0, nil, false
	}
	if r, end := &t.res[age], ts.off+uint64(ts.n); ts.n > slabMax {
		encoded = r.large[ts.off]
	} else {
		encoded = r.slab[ts.off:end:end]
	}
	return ts.status, encoded, true
}

// rotate expires the oldest generation, however large, in one step.
func (t *tombTable) rotate() {
	t.inline.Rotate()
	t.deep.Rotate()
	copy(t.res[1:], t.res[:])
	t.res[0] = results{}
}

func (t *tombTable) len() int { return t.inline.Len() + t.deep.Len() }
