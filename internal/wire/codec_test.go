package wire

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
)

type parityLeaf struct {
	X float64
	Y [2]uint16
}

type parityNested struct {
	Tag   string
	Inner struct {
		Depth  uint32
		Leaf   *parityLeaf
		Labels []string
	}
	Payload []byte
	Footer  [3]int16
}

type namedBytes []byte
type namedU16 uint16

// parityCorpus is the promoted seed corpus the differential tests and
// fuzz target run over. It deliberately includes every shape the
// walker treats specially: bare uint8 (travels as a 16-bit word),
// [N]byte arrays (per-element words, NOT the byte-sequence form),
// maps with non-string keys, and strings at and beyond the 0xffff
// long-string divert.
func parityCorpus() []any {
	leaf := &parityLeaf{X: math.Pi, Y: [2]uint16{1, 0xffff}}
	nested := parityNested{Tag: "t", Payload: []byte{1, 2, 3}}
	nested.Inner.Depth = 9
	nested.Inner.Leaf = leaf
	nested.Inner.Labels = []string{"a", "", "b"}
	nested.Footer = [3]int16{-1, 0, 32767}

	return []any{
		true,
		false,
		uint8(0),
		uint8(0x7f),
		uint8(0xff), // bare uint8: encodes as a full 16-bit word
		int16(-2), uint16(3), int32(-4), uint32(5),
		int64(-6), uint64(7), int(-8), uint(9),
		namedU16(0xabcd),
		float64(0), math.Pi, math.Inf(-1),
		"",
		"odd",
		"even",
		strings.Repeat("x", 0xfffe),
		strings.Repeat("y", 0xffff),  // exactly at the long-string divert
		strings.Repeat("z", 0x10001), // odd long string: padded byte-sequence form
		[]byte(nil),
		[]byte{},
		[]byte{1, 2, 3},
		namedBytes{4, 5},
		[4]byte{1, 2, 3, 4}, // byte array: per-element 16-bit words
		[0]uint32{},
		[3]uint8{0xff, 0, 1},
		[]string{"a", "bb", ""},
		[][]byte{{1}, nil, {}},
		[]uint32{},
		[]uint32(nil),
		map[string]uint32(nil),
		map[string]uint32{},
		map[string]uint32{"b": 2, "a": 1, "": 0},
		map[uint16]string{3: "c", 1: "a", 2: "b"},    // non-string keys
		map[int32][]byte{-1: {1}, 5: nil, 0: {2, 3}}, // negative keys sort by encoding
		map[uint8]uint8{9: 1, 3: 2, 200: 3},          // bare uint8 keys and values
		map[namedU16]namedBytes{7: {1}, 6: nil},
		(*parityLeaf)(nil),
		leaf,
		parityLeaf{X: -1.5, Y: [2]uint16{0, 1}},
		nested,
		struct{}{},
		struct {
			A uint8
			b uint8 // unexported: skipped by both encoders
			C string
		}{A: 1, b: 2, C: "x"},
	}
}

// TestCodecParity asserts the compiled codec and the reflection walker
// produce byte-identical encodings over the corpus, and that each
// decoder internalizes the other's output identically.
func TestCodecParity(t *testing.T) {
	for i, v := range parityCorpus() {
		compiled, cerr := Marshal(v)
		oracle, oerr := walkerMarshal(v)
		if (cerr == nil) != (oerr == nil) {
			t.Fatalf("corpus[%d] %T: compiled err %v, walker err %v", i, v, cerr, oerr)
		}
		if cerr != nil {
			continue
		}
		if !bytes.Equal(compiled, oracle) {
			t.Fatalf("corpus[%d] %T: encodings diverge\ncompiled %x\nwalker   %x", i, v, compiled, oracle)
		}

		// Decode parity: both decoders internalize the shared bytes to
		// the same value.
		got := reflect.New(reflect.TypeOf(v))
		want := reflect.New(reflect.TypeOf(v))
		gerr := Unmarshal(compiled, got.Interface())
		werr := walkerUnmarshal(oracle, want.Interface())
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("corpus[%d] %T: compiled decode err %v, walker decode err %v", i, v, gerr, werr)
		}
		if gerr != nil {
			continue
		}
		if !reflect.DeepEqual(got.Elem().Interface(), want.Elem().Interface()) {
			t.Fatalf("corpus[%d] %T: decodes diverge\ncompiled %+v\nwalker   %+v",
				i, v, got.Elem().Interface(), want.Elem().Interface())
		}
	}
}

// TestCodecParityErrors asserts unsupported kinds and malformed input
// report the same errors through the compiled path as the walker.
func TestCodecParityErrors(t *testing.T) {
	type hasChan struct{ C chan int }
	for _, v := range []any{hasChan{}, complex64(1), float32(1)} {
		_, cerr := Marshal(v)
		_, oerr := walkerMarshal(v)
		if cerr == nil || oerr == nil {
			t.Fatalf("%T: expected errors, got compiled=%v walker=%v", v, cerr, oerr)
		}
		if cerr.Error() != oerr.Error() {
			t.Fatalf("%T: error text diverges: %q vs %q", v, cerr, oerr)
		}
	}

	// Overflow on a bare uint8 word > 0xff: same wrapped error.
	var u8 uint8
	data := []byte{0x01, 0x00}
	cerr := Unmarshal(data, &u8)
	werr := walkerUnmarshal(data, &u8)
	if cerr == nil || werr == nil || cerr.Error() != werr.Error() {
		t.Fatalf("uint8 overflow: %v vs %v", cerr, werr)
	}

	// Field errors carry the same struct-qualified path.
	short := struct {
		A uint32
		B string
	}{A: 1, B: "hello"}
	enc, err := Marshal(short)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		A uint32
		B string
	}
	cerr = Unmarshal(enc[:5], &out)
	werr = walkerUnmarshal(enc[:5], &out)
	if cerr == nil || werr == nil || cerr.Error() != werr.Error() {
		t.Fatalf("field error: %v vs %v", cerr, werr)
	}
}

// TestDecodeReuseNoAliasing hammers the decode-side reuse paths. The
// pooled map scratch is shared global state, so entries it stores must
// never alias each other or a later decode; the target's own backing
// arrays, by contrast, are documented as reusable (like encoding/json,
// a second decode into the same target may overwrite them).
func TestDecodeReuseNoAliasing(t *testing.T) {
	type rec struct {
		M    map[uint16][]int32
		Rows [][]byte
	}
	first := rec{
		M:    map[uint16][]int32{1: {10, 11}, 2: {20}},
		Rows: [][]byte{{1, 1}, {2}},
	}
	second := rec{
		M:    map[uint16][]int32{1: {77, 78}, 3: {30}},
		Rows: [][]byte{{9, 9}, {8}},
	}
	b1, err := Marshal(first)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := Marshal(second)
	if err != nil {
		t.Fatal(err)
	}
	var out rec
	if err := Unmarshal(b1, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.M, first.M) {
		t.Fatalf("map entries alias the pooled decode scratch: %+v", out.M)
	}
	kept := out.M[1] // stored via the pooled holder; must not be scribbled on
	var other rec
	if err := Unmarshal(b2, &other); err != nil {
		t.Fatal(err)
	}
	if err := Unmarshal(b2, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.M, second.M) || !reflect.DeepEqual(out.Rows, second.Rows) {
		t.Fatalf("second decode diverged: %+v", out)
	}
	if !reflect.DeepEqual(other.M, second.M) || !reflect.DeepEqual(other.Rows, second.Rows) {
		t.Fatalf("decode into an independent target interfered: %+v", other)
	}
	if kept[0] != 10 || kept[1] != 11 {
		t.Fatalf("later decodes corrupted a map entry stored by the first: %v", kept)
	}
}

// TestMarshalAppend asserts MarshalAppend extends the caller's buffer
// with exactly Marshal's bytes and allocates nothing once capacity
// suffices.
func TestMarshalAppend(t *testing.T) {
	v := parityNested{Tag: "append"}
	v.Inner.Labels = []string{"l"}
	v.Payload = []byte{7, 7}

	plain, err := Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte("hdr:")
	got, err := MarshalAppend(prefix, v)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte("hdr:"), plain...)
	if !bytes.Equal(got, want) {
		t.Fatalf("MarshalAppend diverged from Marshal:\n%x\n%x", got, want)
	}

	buf := make([]byte, 0, 1024)
	var vi any = v
	allocs := testing.AllocsPerRun(200, func() {
		out, err := MarshalAppend(buf, vi)
		if err != nil {
			t.Fatal(err)
		}
		_ = out
	})
	if allocs > 0 {
		t.Fatalf("MarshalAppend with capacity allocated %.1f times per op", allocs)
	}
}

// TestCodecSteadyStateAllocs pins the hot-path allocation budget:
// Marshal ≤1 (the returned buffer), warm Unmarshal 0.
func TestCodecSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations")
	}
	type rec struct {
		Name  string
		Count uint32
		Tags  []string
		Data  []byte
	}
	var vi any = rec{Name: "troupe", Count: 3, Tags: []string{"a", "b"}, Data: make([]byte, 64)}
	data, err := Marshal(vi)
	if err != nil {
		t.Fatal(err)
	}

	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := Marshal(vi); err != nil {
			t.Fatal(err)
		}
	}); allocs > 1 {
		t.Fatalf("Marshal allocated %.1f times per op, want <=1", allocs)
	}

	var out rec
	if err := Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if err := Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0 {
		t.Fatalf("warm Unmarshal allocated %.1f times per op, want 0", allocs)
	}
}

// FuzzCodecParity drives the compiled codec and the walker over
// fuzzer-built composites and rejects any byte divergence.
func FuzzCodecParity(f *testing.F) {
	f.Add("s", uint8(1), uint16(2), int32(-3), []byte{4}, false)
	f.Add(strings.Repeat("L", 0xffff), uint8(0xff), uint16(0), int32(0), []byte{}, true)
	f.Add("", uint8(0), uint16(0xffff), int32(1<<30), []byte(nil), false)
	f.Fuzz(func(t *testing.T, s string, u8 uint8, u16 uint16, i32 int32, bs []byte, flip bool) {
		type composite struct {
			S    string
			U8   uint8
			A    [3]uint8
			AB   [2]byte
			BS   []byte
			MU   map[uint16]string
			MI   map[int32]uint8
			P    *parityLeaf
			Flip bool
		}
		v := composite{
			S:    s,
			U8:   u8,
			A:    [3]uint8{u8, byte(u16), byte(i32)},
			AB:   [2]byte{byte(u16 >> 8), byte(u16)},
			BS:   bs,
			MU:   map[uint16]string{u16: s, u16 + 1: "", u16 ^ 0x55: "x"},
			MI:   map[int32]uint8{i32: u8, -i32: 0, i32 ^ 7: 0xff},
			Flip: flip,
		}
		if flip {
			v.P = &parityLeaf{X: float64(i32), Y: [2]uint16{u16, uint16(u8)}}
		}
		compiled, cerr := Marshal(v)
		oracle, oerr := walkerMarshal(v)
		if (cerr == nil) != (oerr == nil) {
			t.Fatalf("error divergence: compiled %v, walker %v", cerr, oerr)
		}
		if cerr != nil {
			return
		}
		if !bytes.Equal(compiled, oracle) {
			t.Fatalf("encoding divergence\ncompiled %x\nwalker   %x", compiled, oracle)
		}
		var back composite
		if err := Unmarshal(compiled, &back); err != nil {
			t.Fatalf("decode own encoding: %v", err)
		}
		round, err := walkerMarshal(back)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(round, compiled) {
			t.Fatalf("round trip changed bytes\nfirst  %x\nsecond %x", compiled, round)
		}
	})
}
