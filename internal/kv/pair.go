package kv

import (
	"encoding/binary"
	"fmt"

	"circus/internal/wire"
)

// Pairs have hand-written codecs, since every put, redo record, dump
// and delta is pairs: Key and Val as wire strings (a u16 length, or
// 0xffff and a u32 length for 64 KiB and longer; the bytes; a zero pad
// byte after an odd length), Del as a boolean word, and a sequence of
// pairs as a u32 count and the pairs. The bytes are exactly
// wire.Marshal's, so logs and snapshots written through the reflective
// codec replay unchanged, and the decoder of one pair accepts exactly
// what wire.Unmarshal accepts; pair_test.go holds them against it.

// appendPair appends p's external representation to b.
func appendPair(b []byte, p Pair) []byte {
	b = appendString(b, p.Key)
	b = appendString(b, p.Val)
	if p.Del {
		return binary.BigEndian.AppendUint16(b, 1)
	}
	return binary.BigEndian.AppendUint16(b, 0)
}

// appendPairs appends a dump, a delta or a redo record to b.
func appendPairs(b []byte, pairs []Pair) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(pairs)))
	for _, p := range pairs {
		b = appendPair(b, p)
	}
	return b
}

func appendString(b []byte, s string) []byte {
	if len(s) >= 0xffff {
		b = binary.BigEndian.AppendUint16(b, 0xffff)
		b = binary.BigEndian.AppendUint32(b, uint32(len(s)))
	} else {
		b = binary.BigEndian.AppendUint16(b, uint16(len(s)))
	}
	b = append(b, s...)
	if len(s)%2 == 1 {
		b = append(b, 0)
	}
	return b
}

// stringSize is the encoded size of s.
func stringSize(s string) int {
	n := 2 + len(s) + len(s)%2
	if len(s) >= 0xffff {
		n += 4
	}
	return n
}

// PutArgs externalizes one put.
func PutArgs(key, val string) ([]byte, error) {
	b := make([]byte, 0, stringSize(key)+stringSize(val)+2)
	return appendPair(b, Pair{Key: key, Val: val}), nil
}

// DecodePair decodes one put's argument.
func DecodePair(data []byte) (Pair, error) {
	r := reader{b: data}
	p := r.pair()
	return p, r.end()
}

// DecodePairs decodes a dump, a delta or a redo record. It runs on
// replay and state transfer, not per write, so the wire codec serves.
func DecodePairs(data []byte) ([]Pair, error) {
	var pairs []Pair
	if err := wire.Unmarshal(data, &pairs); err != nil {
		return nil, fmt.Errorf("kv: garbled dump: %w", err)
	}
	return pairs, nil
}

// reader decodes a pair from b, keeping the first error.
type reader struct {
	b   []byte
	err error
}

// take returns a view of the next n bytes.
func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.b) < n {
		r.err = wire.ErrShortBuffer
		return nil
	}
	v := r.b[:n:n]
	r.b = r.b[n:]
	return v
}

func (r *reader) u16() uint16 {
	if v := r.take(2); v != nil {
		return binary.BigEndian.Uint16(v)
	}
	return 0
}

func (r *reader) u32() uint32 {
	if v := r.take(4); v != nil {
		return binary.BigEndian.Uint32(v)
	}
	return 0
}

func (r *reader) fail(format string, n uint32) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, wire.ErrBadValue, n)
	}
}

// str returns a view of the next string's bytes.
func (r *reader) str() []byte {
	n := uint32(r.u16())
	if n == 0xffff {
		if n = r.u32(); n > wire.MaxSequence {
			r.fail("sequence of %d bytes", n)
			return nil
		}
	}
	s := r.take(int(n))
	r.take(int(n & 1))
	return s
}

func (r *reader) boolean() bool {
	switch w := r.u16(); w {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail("boolean word %d", uint32(w))
		return false
	}
}

func (r *reader) pair() Pair {
	key := r.str()
	val := r.str()
	del := r.boolean()
	if r.err != nil {
		return Pair{}
	}
	return Pair{Key: string(key), Val: string(val), Del: del}
}

// end reports the first error, or trailing bytes after a whole value.
func (r *reader) end() error {
	if r.err == nil && len(r.b) > 0 {
		r.err = fmt.Errorf("%w: %d trailing bytes", wire.ErrBadValue, len(r.b))
	}
	return r.err
}
