package core

import (
	"encoding/binary"
	"fmt"

	"circus/internal/wire"
)

// The call and return headers travel with every replicated call, so
// they have hand-written codecs in the fixed layout the wire codec
// gives them — the straight-line externalization a stub compiler emits
// for known types (§7.1) — instead of its reflective plan. The bytes
// are exactly wire.Marshal's, and a decoder accepts exactly what
// wire.Unmarshal accepts; the wire codec stays as the oracle the tests
// hold these against (header_test.go).
//
// Layout, big-endian: a call header is ThreadHost u32, ThreadProc u32,
// the path as a u32 count and u32 elements, ClientTroupe u64,
// DestTroupe u64, Module u16, Proc u16, then Args; a return header is
// Status u16 then Payload. A byte sequence is a u32 length, the bytes,
// and a zero pad byte when the length is odd.

// callFixed is a call header's size without its path elements, its
// args and their pad.
const callFixed = 4 + 4 + 4 + 8 + 8 + 2 + 2 + 4

// marshal returns h's external representation in one allocation.
func (h *callHeader) marshal() []byte {
	b := make([]byte, 0, callFixed+4*len(h.Path)+len(h.Args)+len(h.Args)&1)
	b = binary.BigEndian.AppendUint32(b, h.ThreadHost)
	b = binary.BigEndian.AppendUint32(b, h.ThreadProc)
	b = binary.BigEndian.AppendUint32(b, uint32(len(h.Path)))
	for _, p := range h.Path {
		b = binary.BigEndian.AppendUint32(b, p)
	}
	b = binary.BigEndian.AppendUint64(b, h.ClientTroupe)
	b = binary.BigEndian.AppendUint64(b, h.DestTroupe)
	b = binary.BigEndian.AppendUint16(b, h.Module)
	b = binary.BigEndian.AppendUint16(b, h.Proc)
	return appendSeq(b, h.Args)
}

// unmarshal decodes a call header. The path lands in h.Path's backing
// array when it has room. Args is a view of data: a caller that keeps
// the args past data's lifetime copies them.
func (h *callHeader) unmarshal(data []byte) error {
	if len(data) < 12 {
		return wire.ErrShortBuffer
	}
	h.ThreadHost = binary.BigEndian.Uint32(data)
	h.ThreadProc = binary.BigEndian.Uint32(data[4:])
	n := binary.BigEndian.Uint32(data[8:])
	if n > wire.MaxSequence {
		return fmt.Errorf("%w: sequence of %d elements", wire.ErrBadValue, n)
	}
	data = data[12:]
	if uint64(len(data)) < 4*uint64(n)+20 {
		return wire.ErrShortBuffer
	}
	if cap(h.Path) < int(n) {
		h.Path = make([]uint32, n)
	}
	h.Path = h.Path[:n]
	for i := range h.Path {
		h.Path[i] = binary.BigEndian.Uint32(data[4*i:])
	}
	data = data[4*n:]
	h.ClientTroupe = binary.BigEndian.Uint64(data)
	h.DestTroupe = binary.BigEndian.Uint64(data[8:])
	h.Module = binary.BigEndian.Uint16(data[16:])
	h.Proc = binary.BigEndian.Uint16(data[18:])
	var err error
	h.Args, err = lastSeq(data[20:])
	return err
}

// marshal returns r's external representation in one allocation.
func (r *returnHeader) marshal() []byte {
	return r.appendTo(make([]byte, 0, 2+4+len(r.Payload)+len(r.Payload)&1))
}

// appendTo appends r's external representation to b.
func (r *returnHeader) appendTo(b []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, r.Status)
	return appendSeq(b, r.Payload)
}

// unmarshal decodes a return header. Payload is a view of data.
func (r *returnHeader) unmarshal(data []byte) error {
	if len(data) < 2 {
		return wire.ErrShortBuffer
	}
	r.Status = binary.BigEndian.Uint16(data)
	var err error
	r.Payload, err = lastSeq(data[2:])
	return err
}

// appendSeq appends p as a byte sequence.
func appendSeq(b, p []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(p)))
	b = append(b, p...)
	if len(p)%2 == 1 {
		b = append(b, 0)
	}
	return b
}

// lastSeq decodes the byte sequence that must end data and returns a
// view of its bytes. Like the wire decoder it does not check the pad
// byte's value.
func lastSeq(data []byte) ([]byte, error) {
	if len(data) < 4 {
		return nil, wire.ErrShortBuffer
	}
	n := binary.BigEndian.Uint32(data)
	if n > wire.MaxSequence {
		return nil, fmt.Errorf("%w: sequence of %d bytes", wire.ErrBadValue, n)
	}
	data = data[4:]
	switch end := int(n) + int(n&1); {
	case len(data) < end:
		return nil, wire.ErrShortBuffer
	case len(data) > end:
		return nil, fmt.Errorf("%w: %d trailing bytes", wire.ErrBadValue, len(data)-end)
	}
	return data[:n:n], nil
}
