package wire

import (
	"fmt"
	"reflect"
	"sync"
)

var encoderPool = sync.Pool{New: func() any { return new(Encoder) }}
var decoderPool = sync.Pool{New: func() any { return new(Decoder) }}

// Marshal externalizes v using reflection, covering the constructed
// types of the Courier subset (§7.1.1): records become their fields in
// declaration order, sequences a count plus elements, optional values
// (pointers) a CHOICE between absent and present, and maps a sorted
// sequence of key/value pairs so that deterministic replicas encode
// identical messages (§4.1 requires replicas to produce identical
// results bit-for-bit for the unanimous collator).
//
// Supported kinds: bool, int16/32/64, int, uint16/32/64, uint, float64,
// string, []byte, slices, arrays, maps with ordered keys, structs
// (exported fields), and pointers to any of these. int and uint travel
// as 64-bit. Recursive types are the programmer's responsibility, as
// they were for the Modula-2 stub compiler (§7.1.4).
// Marshaling runs through the compiled codec for v's type (codec.go).
func Marshal(v any) ([]byte, error) {
	rv := reflect.ValueOf(v)
	if !rv.IsValid() {
		return nil, fmt.Errorf("wire: cannot marshal invalid value")
	}
	c := codecFor(rv.Type())
	e := encoderPool.Get().(*Encoder)
	e.buf = e.buf[:0]
	e.Grow(c.fixed)
	err := c.enc(e, rv)
	var out []byte
	if err == nil {
		out = make([]byte, len(e.buf))
		copy(out, e.buf)
	}
	encoderPool.Put(e)
	return out, err
}

// MarshalAppend externalizes v onto buf, growing it as needed, and
// returns the extended slice. It allocates nothing when buf has room.
func MarshalAppend(buf []byte, v any) ([]byte, error) {
	rv := reflect.ValueOf(v)
	if !rv.IsValid() {
		return buf, fmt.Errorf("wire: cannot marshal invalid value")
	}
	c := codecFor(rv.Type())
	// Borrow a pooled Encoder as the execution frame, swapping the
	// caller's buffer in; the pooled scratch is restored before Put so
	// the caller's buffer is never retained by the pool.
	e := encoderPool.Get().(*Encoder)
	scratch := e.buf
	e.buf = buf
	e.Grow(c.fixed)
	err := c.enc(e, rv)
	out := e.buf
	e.buf = scratch
	encoderPool.Put(e)
	if err != nil {
		return buf, err
	}
	return out, nil
}

// Append externalizes v onto an existing encoder.
func Append(e *Encoder, v any) error {
	rv := reflect.ValueOf(v)
	if !rv.IsValid() {
		return fmt.Errorf("wire: cannot marshal invalid value")
	}
	return codecFor(rv.Type()).enc(e, rv)
}

// Unmarshal internalizes data into the value pointed to by out,
// rejecting trailing garbage. Decoding reuses the target's existing
// backing store (strings, slices, maps, pointees) when capacity
// allows, so steady-state decodes into a long-lived value allocate
// nothing; as with encoding/json, references previously extracted
// from the target may be overwritten by the next decode into it.
func Unmarshal(data []byte, out any) error {
	rv := reflect.ValueOf(out)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return fmt.Errorf("wire: Unmarshal target must be a non-nil pointer, got %T", out)
	}
	elem := rv.Elem()
	c := codecFor(elem.Type())
	d := decoderPool.Get().(*Decoder)
	d.buf, d.off = data, 0
	err := c.dec(d, elem)
	if err == nil && !d.Finished() {
		err = fmt.Errorf("%w: %d trailing bytes", ErrBadValue, d.Remaining())
	}
	d.buf = nil
	decoderPool.Put(d)
	return err
}

// Consume internalizes one value from an existing decoder.
func Consume(d *Decoder, out any) error {
	rv := reflect.ValueOf(out)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return fmt.Errorf("wire: Unmarshal target must be a non-nil pointer, got %T", out)
	}
	elem := rv.Elem()
	return codecFor(elem.Type()).dec(d, elem)
}
