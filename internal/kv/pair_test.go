package kv

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"testing"

	"circus/internal/wal"
	"circus/internal/wire"
)

// The hand pair codec of pair.go must be the wire codec's, byte for
// byte: the reflective codec is its oracle.

// pairCases cover empty, odd and even strings and the long-string form
// the wire codec switches to at 0xffff bytes.
func pairCases() []Pair {
	var out []Pair
	for _, n := range []int{0, 1, 2, 7, 1500, 0xfffe, 0xffff, 0x10001} {
		s := strings.Repeat("k", n)
		out = append(out,
			Pair{Key: s, Val: "v"},
			Pair{Key: "key", Val: s},
			Pair{Key: s, Del: true})
	}
	return out
}

// checkPairDecode decodes data with DecodePair, Keys and the wire
// codec: all three agree on acceptance, and on the pair and its key.
func checkPairDecode(t *testing.T, data []byte) {
	t.Helper()
	var oracle Pair
	werr := wire.Unmarshal(data, &oracle)
	hand, herr := DecodePair(data)
	key, guarded := Keys(ProcPut, data)
	if (herr == nil) != (werr == nil) || guarded != (werr == nil) {
		t.Fatalf("pair %.40x: DecodePair says %v, Keys %v, wire %v", data, herr, guarded, werr)
	}
	if werr != nil {
		return
	}
	if hand != oracle || key != oracle.Key {
		t.Fatalf("pair %.40x: DecodePair %s, Keys %s, wire %s", data, brief(hand), brief(key), brief(oracle))
	}
	if !bytes.Equal(appendPair(nil, hand), mustMarshal(t, oracle)) {
		t.Fatalf("pair %.40x: re-encodings differ", data)
	}
}

// brief renders v for a failure message, cut short.
func brief(v any) string {
	s := fmt.Sprintf("%q", v)
	if len(s) > 80 {
		s = s[:80] + "..."
	}
	return s
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := wire.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// cuts are the truncation points checked for an encoding: all of a
// short one, and around each field boundary of a long one.
func cuts(n int) []int {
	if n <= 64 {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	return []int{0, 1, 2, 3, 5, 6, 7, n / 2, n - 3, n - 2, n - 1}
}

// TestPairCodecMatchesWire: appendPair, appendPairs and PutArgs give
// wire.Marshal's bytes, and DecodePair and Keys accept exactly what
// wire.Unmarshal accepts, with equal results: every encoding, its
// truncations, a trailing byte, a bad boolean word, a long form
// holding a short string, and a length past wire.MaxSequence.
func TestPairCodecMatchesWire(t *testing.T) {
	cases := pairCases()
	for _, p := range cases {
		got, want := appendPair(nil, p), mustMarshal(t, p)
		if !bytes.Equal(got, want) {
			t.Fatalf("pair %s: hand encoding %.40x, wire %.40x", brief(p), got, want)
		}
		if !p.Del {
			args, _ := PutArgs(p.Key, p.Val)
			if !bytes.Equal(args, want) {
				t.Fatalf("PutArgs(%.40q, %.40q) = %.40x, wire %.40x", p.Key, p.Val, args, want)
			}
		}
		for _, n := range cuts(len(got)) {
			checkPairDecode(t, got[:n])
		}
		checkPairDecode(t, got)
		checkPairDecode(t, append(slices.Clip(got), 0))
		bad := slices.Clone(got)
		bad[len(bad)-1] = 2 // Del word 2
		checkPairDecode(t, bad)
	}
	for _, n := range []int{0, 1, 3, len(cases)} {
		if got, want := appendPairs(nil, cases[:n]), mustMarshal(t, cases[:n]); !bytes.Equal(got, want) {
			t.Fatalf("%d pairs: hand encoding differs from wire", n)
		}
	}
	long := []byte{0xff, 0xff, 0, 0, 0, 3, 'a', 'b', 'c', 0, 0, 1, 'v', 0, 0, 0}
	checkPairDecode(t, long)
	over := uint32(wire.MaxSequence + 1)
	binary.BigEndian.PutUint32(long[2:], over)
	checkPairDecode(t, long)
}

// TestRedoRecordMatchesWire: a durable store's redo record is
// wire.Marshal of the pairs that changed state, and a record and
// snapshot written through the wire codec replay.
func TestRedoRecordMatchesWire(t *testing.T) {
	disk := wal.NewMemFS(1)
	log, _, err := wal.Open(wal.Options{FS: disk})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(log, nil)
	if err != nil {
		t.Fatal(err)
	}
	batch := []Pair{{Key: "a", Val: "1"}, {Key: "bb", Val: strings.Repeat("x", 0x10001)}, {Key: "a", Del: true}}
	if _, err := s.Write(batch); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Write([]Pair{{Key: "c", Val: "3"}, {Key: "absent", Del: true}}); err != nil {
		t.Fatal(err)
	}
	rec, err := log.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	want := [][]byte{mustMarshal(t, batch), mustMarshal(t, []Pair{{Key: "c", Val: "3"}})}
	if len(rec.Records) != len(want) {
		t.Fatalf("%d redo records, want %d", len(rec.Records), len(want))
	}
	for i := range want {
		if !bytes.Equal(rec.Records[i], want[i]) {
			t.Fatalf("redo record %d is %.40x, wire encodes %.40x", i, rec.Records[i], want[i])
		}
	}

	// A log written through the wire codec: a snapshot image and a
	// record after it.
	old := wal.NewMemFS(2)
	log, _, err = wal.Open(wal.Options{FS: old})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.AppendSync(mustMarshal(t, []Pair{{Key: "gone", Val: "0"}})); err != nil {
		t.Fatal(err)
	}
	img := image{Position: 1, Pairs: []Pair{{Key: "gone", Val: "0"}}}
	if err := log.Snapshot(mustMarshal(t, img)); err != nil {
		t.Fatal(err)
	}
	if _, err := log.AppendSync(mustMarshal(t, []Pair{{Key: "k", Val: "v"}, {Key: "gone", Del: true}})); err != nil {
		t.Fatal(err)
	}
	rec, err = log.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	s, err = Open(log, rec)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Snapshot(); len(got) != 1 || got["k"] != "v" {
		t.Fatalf("replayed state %v, want k=v alone", got)
	}
	if got := s.Position(); got != 3 {
		t.Fatalf("replayed position %d, want 3", got)
	}
}

// FuzzPairCodec: on any input DecodePair and Keys agree with the wire
// codec. The seed corpus runs under go test.
func FuzzPairCodec(f *testing.F) {
	for _, p := range pairCases()[:12] {
		f.Add(appendPair(nil, p))
	}
	f.Add([]byte{0xff, 0xff, 0, 0, 0, 1, 'a', 0, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkPairDecode(t, data)
	})
}
