package core

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"circus/internal/wire"
)

// The hand codecs of header.go must be the wire codec's, byte for
// byte: the reflective codec is their oracle.

// headerCases are call and return headers over paths of 0–6
// components and args and payloads of 0–1 500 bytes, odd lengths
// included.
func headerCases() ([]callHeader, []returnHeader) {
	var calls []callHeader
	var rets []returnHeader
	for _, n := range []int{0, 1, 2, 3, 15, 16, 255, 1023, 1499, 1500} {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i*7 + n)
		}
		for depth := 0; depth <= 6; depth++ {
			path := make([]uint32, depth)
			for i := range path {
				path[i] = uint32(i+1) * 0x01020305
			}
			calls = append(calls, callHeader{ThreadHost: 0x0a000001, ThreadProc: uint32(n),
				Path: path, ClientTroupe: uint64(depth) << 40, DestTroupe: 0xfedcba9876543210,
				Module: uint16(depth), Proc: 0xffff, Args: b})
		}
		rets = append(rets, returnHeader{Status: uint16(n), Payload: b})
	}
	return calls, rets
}

// checkCallDecode decodes data with the hand decoder and with the wire
// codec, which must agree on acceptance and, when accepting, on every
// field.
func checkCallDecode(t *testing.T, data []byte) {
	t.Helper()
	var hand, oracle callHeader
	herr := hand.unmarshal(data)
	werr := wire.Unmarshal(data, &oracle)
	if (herr == nil) != (werr == nil) {
		t.Fatalf("call header %x: hand decoder says %v, wire says %v", data, herr, werr)
	}
	if herr != nil {
		return
	}
	if hand.ThreadHost != oracle.ThreadHost || hand.ThreadProc != oracle.ThreadProc ||
		!slices.Equal(hand.Path, oracle.Path) || hand.ClientTroupe != oracle.ClientTroupe ||
		hand.DestTroupe != oracle.DestTroupe || hand.Module != oracle.Module ||
		hand.Proc != oracle.Proc || !bytes.Equal(hand.Args, oracle.Args) {
		t.Fatalf("call header %x: hand decoded %+v, wire %+v", data, hand, oracle)
	}
	if !bytes.Equal(hand.marshal(), mustMarshal(t, oracle)) {
		t.Fatalf("call header %x: re-encodings differ", data)
	}
}

func checkReturnDecode(t *testing.T, data []byte) {
	t.Helper()
	var hand, oracle returnHeader
	herr := hand.unmarshal(data)
	werr := wire.Unmarshal(data, &oracle)
	if (herr == nil) != (werr == nil) {
		t.Fatalf("return header %x: hand decoder says %v, wire says %v", data, herr, werr)
	}
	if herr != nil {
		return
	}
	if hand.Status != oracle.Status || !bytes.Equal(hand.Payload, oracle.Payload) {
		t.Fatalf("return header %x: hand decoded %+v, wire %+v", data, hand, oracle)
	}
	if !bytes.Equal(hand.marshal(), mustMarshal(t, oracle)) {
		t.Fatalf("return header %x: re-encodings differ", data)
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := wire.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestHeaderCodecMatchesWire: the hand encodings equal wire.Marshal's,
// and the hand decoders accept exactly what wire.Unmarshal accepts —
// every encoding, each of its truncations, each with a trailing byte,
// and counts past wire.MaxSequence — with equal results.
func TestHeaderCodecMatchesWire(t *testing.T) {
	calls, rets := headerCases()
	var encodings [][]byte
	for _, h := range calls {
		got, want := h.marshal(), mustMarshal(t, h)
		if !bytes.Equal(got, want) {
			t.Fatalf("call header %+v: hand encoding %x, wire %x", h, got, want)
		}
		for n := 0; n <= len(got); n++ {
			checkCallDecode(t, got[:n])
		}
		checkCallDecode(t, append(slices.Clip(got), 0))
		encodings = append(encodings, got)
	}
	for _, r := range rets {
		got, want := r.marshal(), mustMarshal(t, r)
		if !bytes.Equal(got, want) {
			t.Fatalf("return header %+v: hand encoding %x, wire %x", r, got, want)
		}
		for n := 0; n <= len(got); n++ {
			checkReturnDecode(t, got[:n])
		}
		checkReturnDecode(t, append(slices.Clip(got), 0))
		encodings = append(encodings, got)
	}
	// Oversize counts: a path count and an args length one past the
	// bound, and a return payload length likewise.
	over := uint32(wire.MaxSequence + 1)
	call := calls[3].marshal()
	binary.BigEndian.PutUint32(call[8:], over)
	checkCallDecode(t, call)
	call = calls[3].marshal()
	binary.BigEndian.PutUint32(call[len(call)-4-len(calls[3].Args)-len(calls[3].Args)%2:], over)
	checkCallDecode(t, call)
	ret := rets[2].marshal()
	binary.BigEndian.PutUint32(ret[2:], over)
	checkReturnDecode(t, ret)
	// Every encoding also read as the other type.
	for _, e := range encodings {
		checkCallDecode(t, e)
		checkReturnDecode(t, e)
	}
}

// TestCallHeaderDecodeReusesPath: a decode into a worker's scratch
// reuses the path's backing, so a warm decode allocates nothing.
func TestCallHeaderDecodeReusesPath(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	calls, _ := headerCases()
	data := calls[4].marshal()
	var scr callHeader
	if err := scr.unmarshal(data); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { _ = scr.unmarshal(data) }); n != 0 {
		t.Fatalf("warm call header decode: %v allocations, want 0", n)
	}
}

// FuzzHeaderCodec: on any input the hand decoders agree with the wire
// codec on acceptance and on the decoded fields, and what they accept
// re-encodes to the wire codec's bytes. The seed corpus runs under go
// test.
func FuzzHeaderCodec(f *testing.F) {
	calls, rets := headerCases()
	for _, h := range calls {
		f.Add(h.marshal())
	}
	for _, r := range rets {
		f.Add(r.marshal())
	}
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 0, 0, 1, 'x', 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkCallDecode(t, data)
		checkReturnDecode(t, data)
	})
}
