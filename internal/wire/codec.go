package wire

// Compiled codecs: a per-type encode/decode plan built once by
// reflection and cached, so the call hot path never repeats a
// recursive kind-switch. The plan is a flat program of field
// operations for structs and closure chains for constructed types.
// §4.1's unanimous collator requires replicas to produce identical
// encodings, so the output is pinned bit for bit: the recursive walker
// these codecs replaced is kept beside its differential tests
// (reflect_oracle_test.go) as the parity oracle.

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
)

// codec is a compiled encode/decode plan for one reflect.Type.
type codec struct {
	enc   func(*Encoder, reflect.Value) error
	dec   func(*Decoder, reflect.Value) error
	fixed int // static minimum encoded size, used as a buffer size hint
}

var codecCache sync.Map // reflect.Type -> *codec

// codecFor returns the compiled codec for t, compiling and caching it
// on first use. Recursive types resolve through a wait-group
// placeholder (the encoding/json technique): the placeholder is
// published before compilation so a self-referential field finds it,
// and blocks any concurrent caller until the real codec is ready.
func codecFor(t reflect.Type) *codec {
	if c, ok := codecCache.Load(t); ok {
		return c.(*codec)
	}
	var (
		wg sync.WaitGroup
		c  *codec
	)
	wg.Add(1)
	placeholder := &codec{
		enc: func(e *Encoder, v reflect.Value) error { wg.Wait(); return c.enc(e, v) },
		dec: func(d *Decoder, v reflect.Value) error { wg.Wait(); return c.dec(d, v) },
	}
	if actual, loaded := codecCache.LoadOrStore(t, placeholder); loaded {
		return actual.(*codec)
	}
	c = compile(t)
	wg.Done()
	codecCache.Store(t, c)
	return c
}

func compile(t reflect.Type) *codec {
	switch t.Kind() {
	case reflect.Bool:
		return &codec{fixed: 2,
			enc: func(e *Encoder, v reflect.Value) error { e.PutBool(v.Bool()); return nil },
			dec: func(d *Decoder, v reflect.Value) error {
				b, err := d.Bool()
				if err != nil {
					return err
				}
				v.SetBool(b)
				return nil
			}}
	case reflect.Int16:
		return &codec{fixed: 2,
			enc: func(e *Encoder, v reflect.Value) error { e.PutUint16(uint16(v.Int())); return nil },
			dec: func(d *Decoder, v reflect.Value) error {
				n, err := d.Int16()
				if err != nil {
					return err
				}
				v.SetInt(int64(n))
				return nil
			}}
	case reflect.Int32:
		return &codec{fixed: 4,
			enc: func(e *Encoder, v reflect.Value) error { e.PutUint32(uint32(v.Int())); return nil },
			dec: func(d *Decoder, v reflect.Value) error {
				n, err := d.Int32()
				if err != nil {
					return err
				}
				v.SetInt(int64(n))
				return nil
			}}
	case reflect.Int64, reflect.Int:
		return &codec{fixed: 8,
			enc: func(e *Encoder, v reflect.Value) error { e.PutUint64(uint64(v.Int())); return nil },
			dec: func(d *Decoder, v reflect.Value) error {
				n, err := d.Int64()
				if err != nil {
					return err
				}
				if v.OverflowInt(n) {
					return fmt.Errorf("%w: %d overflows %s", ErrBadValue, n, v.Type())
				}
				v.SetInt(n)
				return nil
			}}
	case reflect.Uint8:
		return &codec{fixed: 2,
			enc: func(e *Encoder, v reflect.Value) error { e.PutUint16(uint16(v.Uint())); return nil },
			dec: func(d *Decoder, v reflect.Value) error {
				n, err := d.Uint16()
				if err != nil {
					return err
				}
				if v.OverflowUint(uint64(n)) {
					return fmt.Errorf("%w: %d overflows %s", ErrBadValue, n, v.Type())
				}
				v.SetUint(uint64(n))
				return nil
			}}
	case reflect.Uint16:
		return &codec{fixed: 2,
			enc: func(e *Encoder, v reflect.Value) error { e.PutUint16(uint16(v.Uint())); return nil },
			dec: func(d *Decoder, v reflect.Value) error {
				n, err := d.Uint16()
				if err != nil {
					return err
				}
				v.SetUint(uint64(n))
				return nil
			}}
	case reflect.Uint32:
		return &codec{fixed: 4,
			enc: func(e *Encoder, v reflect.Value) error { e.PutUint32(uint32(v.Uint())); return nil },
			dec: func(d *Decoder, v reflect.Value) error {
				n, err := d.Uint32()
				if err != nil {
					return err
				}
				v.SetUint(uint64(n))
				return nil
			}}
	case reflect.Uint64, reflect.Uint:
		return &codec{fixed: 8,
			enc: func(e *Encoder, v reflect.Value) error { e.PutUint64(v.Uint()); return nil },
			dec: func(d *Decoder, v reflect.Value) error {
				n, err := d.Uint64()
				if err != nil {
					return err
				}
				if v.OverflowUint(n) {
					return fmt.Errorf("%w: %d overflows %s", ErrBadValue, n, v.Type())
				}
				v.SetUint(n)
				return nil
			}}
	case reflect.Float64:
		return &codec{fixed: 8,
			enc: func(e *Encoder, v reflect.Value) error { e.PutUint64(math.Float64bits(v.Float())); return nil },
			dec: func(d *Decoder, v reflect.Value) error {
				f, err := d.Float64()
				if err != nil {
					return err
				}
				v.SetFloat(f)
				return nil
			}}
	case reflect.String:
		return &codec{fixed: 2,
			enc: func(e *Encoder, v reflect.Value) error { return encodeString(e, v.String()) },
			dec: decodeStringInto,
		}
	case reflect.Slice:
		if t.Elem().Kind() == reflect.Uint8 {
			return &codec{fixed: 4,
				enc: func(e *Encoder, v reflect.Value) error { e.PutBytes(v.Bytes()); return nil },
				dec: decodeBytesInto,
			}
		}
		return compileSlice(t)
	case reflect.Array:
		return compileArray(t)
	case reflect.Map:
		return compileMap(t)
	case reflect.Struct:
		return compileStruct(t)
	case reflect.Pointer:
		return compilePointer(t)
	default:
		// Outside the Courier subset: a codec that says so.
		err := fmt.Errorf("wire: unsupported kind %s", t.Kind())
		return &codec{
			enc: func(*Encoder, reflect.Value) error { return err },
			dec: func(*Decoder, reflect.Value) error { return err },
		}
	}
}

// encodeString writes a STRING, diverting long strings to the byte-
// sequence form exactly as the walker does.
func encodeString(e *Encoder, s string) error {
	if len(s) >= 0xffff {
		e.PutUint16(0xffff)
		e.PutUint32(uint32(len(s)))
		e.buf = append(e.buf, s...)
		if len(s)%2 == 1 {
			e.buf = append(e.buf, 0)
		}
		return nil
	}
	return e.PutString(s)
}

// decodeStringInto reads a STRING, keeping the target's existing
// backing store when the decoded content is identical (the comparison
// form string(b) == s does not allocate).
func decodeStringInto(d *Decoder, v reflect.Value) error {
	n16, err := d.Uint16()
	if err != nil {
		return err
	}
	var b []byte
	if n16 == 0xffff {
		n, err := d.Uint32()
		if err != nil {
			return err
		}
		if n > MaxSequence {
			return fmt.Errorf("%w: sequence of %d bytes", ErrBadValue, n)
		}
		if b, err = d.take(int(n)); err != nil {
			return err
		}
		if n%2 == 1 {
			if _, err := d.take(1); err != nil {
				return err
			}
		}
	} else {
		if b, err = d.take(int(n16)); err != nil {
			return err
		}
		if n16%2 == 1 {
			if _, err := d.take(1); err != nil {
				return err
			}
		}
	}
	if v.String() != string(b) {
		v.SetString(string(b))
	}
	return nil
}

// decodeBytesInto reads an opaque byte sequence, reusing the target
// slice's capacity when it suffices. Like the walker it always leaves
// a non-nil slice, so empty round trips stay DeepEqual.
func decodeBytesInto(d *Decoder, v reflect.Value) error {
	n, err := d.Uint32()
	if err != nil {
		return err
	}
	if n > MaxSequence {
		return fmt.Errorf("%w: sequence of %d bytes", ErrBadValue, n)
	}
	b, err := d.take(int(n))
	if err != nil {
		return err
	}
	if n%2 == 1 {
		if _, err := d.take(1); err != nil {
			return err
		}
	}
	dst := v.Bytes()
	if cap(dst) < len(b) || (len(b) == 0 && dst == nil) {
		dst = make([]byte, len(b))
	} else {
		dst = dst[:len(b)]
	}
	copy(dst, b)
	v.SetBytes(dst)
	return nil
}

func compileSlice(t reflect.Type) *codec {
	ec := codecFor(t.Elem())
	return &codec{fixed: 4,
		enc: func(e *Encoder, v reflect.Value) error {
			n := v.Len()
			e.PutCount(n)
			for i := 0; i < n; i++ {
				if err := ec.enc(e, v.Index(i)); err != nil {
					return err
				}
			}
			return nil
		},
		dec: func(d *Decoder, v reflect.Value) error {
			n, err := d.Count()
			if err != nil {
				return err
			}
			s := v
			fresh := false
			if v.Cap() >= n && (n > 0 || !v.IsNil()) {
				v.SetLen(n) // reuse the existing backing array in place
			} else {
				s = reflect.MakeSlice(t, n, n)
				fresh = true
			}
			for i := 0; i < n; i++ {
				if err := ec.dec(d, s.Index(i)); err != nil {
					return err
				}
			}
			if fresh {
				v.Set(s)
			}
			return nil
		}}
}

func compileArray(t reflect.Type) *codec {
	n := t.Len()
	ec := codecFor(t.Elem())
	return &codec{fixed: n * ec.fixed,
		enc: func(e *Encoder, v reflect.Value) error {
			for i := 0; i < n; i++ {
				if err := ec.enc(e, v.Index(i)); err != nil {
					return err
				}
			}
			return nil
		},
		dec: func(d *Decoder, v reflect.Value) error {
			for i := 0; i < n; i++ {
				if err := ec.dec(d, v.Index(i)); err != nil {
					return err
				}
			}
			return nil
		}}
}

func compilePointer(t reflect.Type) *codec {
	ec := codecFor(t.Elem())
	et := t.Elem()
	return &codec{fixed: 2,
		enc: func(e *Encoder, v reflect.Value) error {
			if v.IsNil() {
				e.PutUint16(0)
				return nil
			}
			e.PutUint16(1)
			return ec.enc(e, v.Elem())
		},
		dec: func(d *Decoder, v reflect.Value) error {
			present, err := d.Uint16()
			if err != nil {
				return err
			}
			switch present {
			case 0:
				v.SetZero()
				return nil
			case 1:
				if v.IsNil() {
					v.Set(reflect.New(et))
				}
				return ec.dec(d, v.Elem())
			default:
				return fmt.Errorf("%w: choice designator %d", ErrBadValue, present)
			}
		}}
}

// needsZero reports whether a reused scratch value of type t must be
// zeroed before the next decode/iteration: types holding a slice, map
// or pointer would otherwise alias backing store already handed to a
// previously stored entry.
func needsZero(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Slice, reflect.Map, reflect.Pointer, reflect.Interface:
		return true
	case reflect.Array:
		return needsZero(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if needsZero(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

// mapScratch is the pooled per-encode state for one map codec: an off-
// to-the-side encoder holding the (key, value) pairs contiguously, the
// segment bounds of each pair, a permutation sorted by encoded key
// bytes, and reusable key/value holders for iteration and decode.
type mapScratch struct {
	enc     Encoder
	keyEnd  []int // end of entry i's key segment
	pairEnd []int // end of entry i's value segment
	perm    []int
	key     reflect.Value
	val     reflect.Value
}

func (s *mapScratch) keyBytes(i int) []byte {
	start := 0
	if i > 0 {
		start = s.pairEnd[i-1]
	}
	return s.enc.buf[start:s.keyEnd[i]]
}

func (s *mapScratch) Len() int      { return len(s.perm) }
func (s *mapScratch) Swap(i, j int) { s.perm[i], s.perm[j] = s.perm[j], s.perm[i] }
func (s *mapScratch) Less(i, j int) bool {
	return bytes.Compare(s.keyBytes(s.perm[i]), s.keyBytes(s.perm[j])) < 0
}

func compileMap(t reflect.Type) *codec {
	kc := codecFor(t.Key())
	vc := codecFor(t.Elem())
	kt, vt := t.Key(), t.Elem()
	kz, vz := needsZero(kt), needsZero(vt)
	pool := &sync.Pool{New: func() any {
		return &mapScratch{key: reflect.New(kt).Elem(), val: reflect.New(vt).Elem()}
	}}
	return &codec{fixed: 4,
		enc: func(e *Encoder, v reflect.Value) error {
			n := v.Len()
			e.PutCount(n)
			if n == 0 {
				return nil
			}
			s := pool.Get().(*mapScratch)
			defer func() {
				s.enc.buf = s.enc.buf[:0]
				s.keyEnd = s.keyEnd[:0]
				s.pairEnd = s.pairEnd[:0]
				s.perm = s.perm[:0]
				pool.Put(s)
			}()
			it := v.MapRange()
			for it.Next() {
				s.key.SetIterKey(it)
				if err := kc.enc(&s.enc, s.key); err != nil {
					return err
				}
				s.keyEnd = append(s.keyEnd, s.enc.Len())
				s.val.SetIterValue(it)
				if err := vc.enc(&s.enc, s.val); err != nil {
					return err
				}
				s.pairEnd = append(s.pairEnd, s.enc.Len())
				s.perm = append(s.perm, len(s.perm))
			}
			sort.Sort(s)
			for _, i := range s.perm {
				start := 0
				if i > 0 {
					start = s.pairEnd[i-1]
				}
				e.buf = append(e.buf, s.enc.buf[start:s.pairEnd[i]]...)
			}
			return nil
		},
		dec: func(d *Decoder, v reflect.Value) error {
			n, err := d.Count()
			if err != nil {
				return err
			}
			m := v
			if v.IsNil() {
				m = reflect.MakeMapWithSize(t, n)
			} else {
				m.Clear()
			}
			if n > 0 {
				s := pool.Get().(*mapScratch)
				for i := 0; i < n; i++ {
					if kz {
						s.key.SetZero()
					}
					if err := kc.dec(d, s.key); err != nil {
						pool.Put(s)
						return err
					}
					if vz {
						s.val.SetZero()
					}
					if err := vc.dec(d, s.val); err != nil {
						pool.Put(s)
						return err
					}
					m.SetMapIndex(s.key, s.val)
				}
				if kz {
					s.key.SetZero()
				}
				if vz {
					s.val.SetZero()
				}
				pool.Put(s)
			}
			if v.IsNil() {
				v.Set(m)
			}
			return nil
		}}
}

// Struct programs: one opcode per exported field, with fixed-width
// scalars executed inline and everything else delegated to the field
// type's own codec.
const (
	opBool = iota
	opInt16
	opInt32
	opInt64
	opUint8
	opUint16
	opUint32
	opUint64
	opFloat64
	opString
	opBytes
	opSub
)

type fieldOp struct {
	op   uint8
	idx  int
	name string
	sub  *codec
}

type structProgram struct {
	name string
	ops  []fieldOp
}

func compileStruct(t reflect.Type) *codec {
	p := &structProgram{name: t.Name()}
	fixed := 0
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		if !sf.IsExported() {
			continue
		}
		op := fieldOp{idx: i, name: sf.Name}
		switch sf.Type.Kind() {
		case reflect.Bool:
			op.op, fixed = opBool, fixed+2
		case reflect.Int16:
			op.op, fixed = opInt16, fixed+2
		case reflect.Int32:
			op.op, fixed = opInt32, fixed+4
		case reflect.Int64, reflect.Int:
			op.op, fixed = opInt64, fixed+8
		case reflect.Uint8:
			op.op, fixed = opUint8, fixed+2
		case reflect.Uint16:
			op.op, fixed = opUint16, fixed+2
		case reflect.Uint32:
			op.op, fixed = opUint32, fixed+4
		case reflect.Uint64, reflect.Uint:
			op.op, fixed = opUint64, fixed+8
		case reflect.Float64:
			op.op, fixed = opFloat64, fixed+8
		case reflect.String:
			op.op, fixed = opString, fixed+2
		case reflect.Slice:
			if sf.Type.Elem().Kind() == reflect.Uint8 {
				op.op, fixed = opBytes, fixed+4
				break
			}
			fallthrough
		default:
			op.op = opSub
			op.sub = codecFor(sf.Type)
			fixed += op.sub.fixed
		}
		p.ops = append(p.ops, op)
	}
	return &codec{enc: p.enc, dec: p.dec, fixed: fixed}
}

func (p *structProgram) enc(e *Encoder, v reflect.Value) error {
	for i := range p.ops {
		op := &p.ops[i]
		f := v.Field(op.idx)
		var err error
		switch op.op {
		case opBool:
			e.PutBool(f.Bool())
		case opInt16:
			e.PutUint16(uint16(f.Int()))
		case opInt32:
			e.PutUint32(uint32(f.Int()))
		case opInt64:
			e.PutUint64(uint64(f.Int()))
		case opUint8, opUint16:
			e.PutUint16(uint16(f.Uint()))
		case opUint32:
			e.PutUint32(uint32(f.Uint()))
		case opUint64:
			e.PutUint64(f.Uint())
		case opFloat64:
			e.PutUint64(math.Float64bits(f.Float()))
		case opString:
			err = encodeString(e, f.String())
		case opBytes:
			e.PutBytes(f.Bytes())
		case opSub:
			err = op.sub.enc(e, f)
		}
		if err != nil {
			return fmt.Errorf("field %s.%s: %w", p.name, op.name, err)
		}
	}
	return nil
}

func (p *structProgram) dec(d *Decoder, v reflect.Value) error {
	for i := range p.ops {
		op := &p.ops[i]
		f := v.Field(op.idx)
		var err error
		switch op.op {
		case opBool:
			var b bool
			if b, err = d.Bool(); err == nil {
				f.SetBool(b)
			}
		case opInt16:
			var n int16
			if n, err = d.Int16(); err == nil {
				f.SetInt(int64(n))
			}
		case opInt32:
			var n int32
			if n, err = d.Int32(); err == nil {
				f.SetInt(int64(n))
			}
		case opInt64:
			var n int64
			if n, err = d.Int64(); err == nil {
				if f.OverflowInt(n) {
					err = fmt.Errorf("%w: %d overflows %s", ErrBadValue, n, f.Type())
				} else {
					f.SetInt(n)
				}
			}
		case opUint8:
			var n uint16
			if n, err = d.Uint16(); err == nil {
				if f.OverflowUint(uint64(n)) {
					err = fmt.Errorf("%w: %d overflows %s", ErrBadValue, n, f.Type())
				} else {
					f.SetUint(uint64(n))
				}
			}
		case opUint16:
			var n uint16
			if n, err = d.Uint16(); err == nil {
				f.SetUint(uint64(n))
			}
		case opUint32:
			var n uint32
			if n, err = d.Uint32(); err == nil {
				f.SetUint(uint64(n))
			}
		case opUint64:
			var n uint64
			if n, err = d.Uint64(); err == nil {
				if f.OverflowUint(n) {
					err = fmt.Errorf("%w: %d overflows %s", ErrBadValue, n, f.Type())
				} else {
					f.SetUint(n)
				}
			}
		case opFloat64:
			var x float64
			if x, err = d.Float64(); err == nil {
				f.SetFloat(x)
			}
		case opString:
			err = decodeStringInto(d, f)
		case opBytes:
			err = decodeBytesInto(d, f)
		case opSub:
			err = op.sub.dec(d, f)
		}
		if err != nil {
			return fmt.Errorf("field %s.%s: %w", p.name, op.name, err)
		}
	}
	return nil
}
