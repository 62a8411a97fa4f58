package collate

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func feed(c Collator, items ...Item) ([]byte, error) {
	for _, it := range items {
		if c.Add(it) {
			break
		}
	}
	return c.Result()
}

func TestUnanimousAgree(t *testing.T) {
	got, err := feed(Unanimous(3),
		Item{0, []byte("v"), nil},
		Item{1, []byte("v"), nil},
		Item{2, []byte("v"), nil})
	if err != nil || string(got) != "v" {
		t.Fatalf("got %q, %v", got, err)
	}
}

func TestUnanimousDisagreementDetected(t *testing.T) {
	_, err := feed(Unanimous(3),
		Item{0, []byte("v"), nil},
		Item{1, []byte("w"), nil})
	if err != ErrDisagreement {
		t.Fatalf("err = %v, want ErrDisagreement", err)
	}
}

func TestUnanimousDecidesEarlyOnDisagreement(t *testing.T) {
	u := Unanimous(5)
	u.Add(Item{0, []byte("v"), nil})
	if done := u.Add(Item{1, []byte("w"), nil}); !done {
		t.Fatal("disagreement did not terminate collation early")
	}
}

func TestUnanimousToleratesCrashedMembers(t *testing.T) {
	// The client proceeds with the messages from members still
	// available (§4.3.1).
	got, err := feed(Unanimous(3),
		Item{0, nil, ErrMemberDown},
		Item{1, []byte("v"), nil},
		Item{2, []byte("v"), nil})
	if err != nil || string(got) != "v" {
		t.Fatalf("got %q, %v", got, err)
	}
}

func TestUnanimousAllFailed(t *testing.T) {
	_, err := feed(Unanimous(2), Item{0, nil, ErrMemberDown}, Item{1, nil, ErrMemberDown})
	if err != ErrAllFailed {
		t.Fatalf("err = %v, want ErrAllFailed", err)
	}
}

func TestFirstComeTakesFirst(t *testing.T) {
	f := FirstCome(3)
	if done := f.Add(Item{2, []byte("fast"), nil}); !done {
		t.Fatal("first message did not decide")
	}
	got, err := f.Result()
	if err != nil || string(got) != "fast" {
		t.Fatalf("got %q, %v", got, err)
	}
}

func TestFirstComeSkipsFailures(t *testing.T) {
	got, err := feed(FirstCome(3),
		Item{0, nil, ErrMemberDown},
		Item{1, []byte("slow but alive"), nil})
	if err != nil || string(got) != "slow but alive" {
		t.Fatalf("got %q, %v", got, err)
	}
}

func TestFirstComeAllFailed(t *testing.T) {
	_, err := feed(FirstCome(2), Item{0, nil, ErrMemberDown}, Item{1, nil, ErrMemberDown})
	if err != ErrAllFailed {
		t.Fatalf("err = %v, want ErrAllFailed", err)
	}
}

func TestMajorityWins(t *testing.T) {
	got, err := feed(Majority(3),
		Item{0, []byte("a"), nil},
		Item{1, []byte("b"), nil},
		Item{2, []byte("a"), nil})
	if err != nil || string(got) != "a" {
		t.Fatalf("got %q, %v", got, err)
	}
}

func TestMajorityDecidesEarly(t *testing.T) {
	m := Majority(5)
	m.Add(Item{0, []byte("a"), nil})
	m.Add(Item{1, []byte("a"), nil})
	if done := m.Add(Item{2, []byte("a"), nil}); !done {
		t.Fatal("3 of 5 identical did not decide")
	}
}

func TestNoMajority(t *testing.T) {
	_, err := feed(Majority(3),
		Item{0, []byte("a"), nil},
		Item{1, []byte("b"), nil},
		Item{2, []byte("c"), nil})
	if err != ErrNoMajority {
		t.Fatalf("err = %v, want ErrNoMajority", err)
	}
}

func TestMajorityUnreachableTerminatesEarly(t *testing.T) {
	m := Majority(3) // needs 2 identical
	m.Add(Item{0, []byte("a"), nil})
	m.Add(Item{1, []byte("b"), nil})
	if done := m.Add(Item{2, nil, ErrMemberDown}); !done {
		t.Fatal("unreachable majority did not terminate")
	}
	if _, err := m.Result(); err != ErrNoMajority {
		t.Fatalf("err = %v, want ErrNoMajority", err)
	}
}

func TestQuorum(t *testing.T) {
	got, err := feed(Quorum(5, 2),
		Item{0, []byte("x"), nil},
		Item{1, []byte("y"), nil},
		Item{2, []byte("y"), nil})
	if err != nil || string(got) != "y" {
		t.Fatalf("got %q, %v", got, err)
	}
}

func TestQuorumUnreachable(t *testing.T) {
	_, err := feed(Quorum(3, 3),
		Item{0, []byte("x"), nil},
		Item{1, []byte("y"), nil},
		Item{2, []byte("x"), nil})
	if err != ErrNoQuorum {
		t.Fatalf("err = %v, want ErrNoQuorum", err)
	}
}

func TestCustomCollatorAveraging(t *testing.T) {
	// The temperature-averaging server of Figure 7.7, as a collator.
	avg := New(3, func(items []Item) ([]byte, error) {
		var vals []float64
		for _, it := range items {
			if it.Err == nil {
				vals = append(vals, float64(it.Data[0]))
			}
		}
		return []byte{byte(MeanFloat64(vals))}, nil
	})
	got, err := feed(avg,
		Item{0, []byte{10}, nil},
		Item{1, []byte{20}, nil},
		Item{2, []byte{30}, nil})
	if err != nil || got[0] != 20 {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestCustomAllFailed(t *testing.T) {
	c := New(2, func(items []Item) ([]byte, error) { return nil, nil })
	_, err := feed(c, Item{0, nil, ErrMemberDown}, Item{1, nil, ErrMemberDown})
	if err != ErrAllFailed {
		t.Fatalf("err = %v, want ErrAllFailed", err)
	}
}

func TestMedianFloat64(t *testing.T) {
	if m := MedianFloat64([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v, want 2", m)
	}
	if m := MedianFloat64([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Errorf("median even = %v, want 2.5", m)
	}
	if m := MedianFloat64([]float64{7}); m != 7 {
		t.Errorf("median single = %v, want 7", m)
	}
}

func TestMeanFloat64(t *testing.T) {
	if m := MeanFloat64([]float64{1, 2, 3, 4}); m != 2.5 {
		t.Errorf("mean = %v, want 2.5", m)
	}
}

// Property: with n identical healthy replies every collator returns
// that value.
func TestQuickCollatorsAgreeOnIdenticalInput(t *testing.T) {
	f := func(data []byte, nRaw uint8) bool {
		n := int(nRaw%5) + 1
		for _, mk := range []func(int) Collator{Unanimous, FirstCome, Majority} {
			c := mk(n)
			for i := 0; i < n; i++ {
				if c.Add(Item{i, data, nil}) {
					break
				}
			}
			got, err := c.Result()
			if err != nil || !bytes.Equal(got, data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: majority never returns a value held by <= n/2 members.
func TestQuickMajoritySound(t *testing.T) {
	f := func(votes []uint8) bool {
		n := len(votes)
		if n == 0 {
			return true
		}
		c := Majority(n)
		counts := map[uint8]int{}
		for i, v := range votes {
			counts[v]++
			if c.Add(Item{i, []byte{v}, nil}) {
				break
			}
		}
		got, err := c.Result()
		if err != nil {
			// Valid only if no value truly has a majority.
			for _, cnt := range counts {
				if cnt > n/2 {
					return false
				}
			}
			return true
		}
		// Count the winner's true frequency over all votes.
		total := 0
		for _, v := range votes {
			if v == got[0] {
				total++
			}
		}
		return total > n/2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: the median lies between min and max.
func TestQuickMedianBounded(t *testing.T) {
	f := func(vs []float64) bool {
		if len(vs) == 0 {
			return true
		}
		for _, v := range vs {
			if math.IsNaN(v) {
				return true
			}
		}
		m := MedianFloat64(vs)
		lo, hi := vs[0], vs[0]
		for _, v := range vs {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		return m >= lo && m <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestCollatorEdgeCases tabulates the awkward corners of each
// collator: exact ties under majority voting, quorums that fall one
// vote short, stragglers arriving after a decision, custom collating
// functions that themselves fail, and the masking rule — a refusal is
// a vote, a presumed crash is masked, and any other member error
// decides a unanimous call and is an absence to the others.
func TestCollatorEdgeCases(t *testing.T) {
	item := func(m int, s string) Item { return Item{Member: m, Data: []byte(s)} }
	fail := func(m int) Item { return Item{Member: m, Err: ErrMemberDown} }
	refuse := func(m int, msg string) Item { return Item{Member: m, Err: &AppError{Msg: msg}} }
	late := func(m int) Item { return Item{Member: m, Err: context.DeadlineExceeded} }

	tests := []struct {
		name    string
		mk      func() Collator
		items   []Item
		want    string
		wantErr error
		refusal string // the refusal the collator must return
	}{
		{
			name:    "unanimous same refusal from all",
			mk:      func() Collator { return Unanimous(3) },
			items:   []Item{refuse(0, "no"), refuse(1, "no"), refuse(2, "no")},
			refusal: "no",
		},
		{
			name:    "unanimous refusal beside result",
			mk:      func() Collator { return Unanimous(3) },
			items:   []Item{item(0, "x"), refuse(1, "no"), refuse(2, "no")},
			wantErr: ErrDisagreement,
		},
		{
			name:    "unanimous two different refusals",
			mk:      func() Collator { return Unanimous(3) },
			items:   []Item{refuse(0, "a"), refuse(1, "b"), refuse(2, "a")},
			wantErr: ErrDisagreement,
		},
		{
			name:    "unanimous masks a crash beside refusals",
			mk:      func() Collator { return Unanimous(3) },
			items:   []Item{fail(0), refuse(1, "no"), refuse(2, "no")},
			refusal: "no",
		},
		{
			name:    "unanimous deadline decides",
			mk:      func() Collator { return Unanimous(3) },
			items:   []Item{item(0, "x"), item(1, "x"), late(2)},
			wantErr: context.DeadlineExceeded,
		},
		{
			name:    "majority same refusal from all",
			mk:      func() Collator { return Majority(3) },
			items:   []Item{refuse(0, "no"), refuse(1, "no"), refuse(2, "no")},
			refusal: "no",
		},
		{
			name:    "majority refusals outvote a result",
			mk:      func() Collator { return Majority(3) },
			items:   []Item{item(0, "x"), refuse(1, "no"), refuse(2, "no")},
			refusal: "no",
		},
		{
			name:    "majority two different refusals",
			mk:      func() Collator { return Majority(3) },
			items:   []Item{refuse(0, "a"), refuse(1, "b"), refuse(2, "a")},
			refusal: "a",
		},
		{
			name:    "majority masks a crash beside refusals",
			mk:      func() Collator { return Majority(3) },
			items:   []Item{fail(0), refuse(1, "no"), refuse(2, "no")},
			refusal: "no",
		},
		{
			name:    "majority deadline is an absence",
			mk:      func() Collator { return Majority(3) },
			items:   []Item{late(0), refuse(1, "no"), refuse(2, "no")},
			refusal: "no",
		},
		{
			name:    "quorum same refusal from all",
			mk:      func() Collator { return Quorum(3, 3) },
			items:   []Item{refuse(0, "no"), refuse(1, "no"), refuse(2, "no")},
			refusal: "no",
		},
		{
			name:    "quorum of one takes a refusal before a result",
			mk:      func() Collator { return Quorum(3, 1) },
			items:   []Item{refuse(0, "no"), item(1, "x"), item(2, "x")},
			refusal: "no",
		},
		{
			name:    "quorum two different refusals",
			mk:      func() Collator { return Quorum(3, 2) },
			items:   []Item{refuse(0, "a"), refuse(1, "b"), fail(2)},
			wantErr: ErrNoQuorum,
		},
		{
			name:    "quorum masks a crash beside refusals",
			mk:      func() Collator { return Quorum(3, 2) },
			items:   []Item{fail(0), refuse(1, "no"), refuse(2, "no")},
			refusal: "no",
		},
		{
			name:    "quorum deadline is an absence",
			mk:      func() Collator { return Quorum(3, 2) },
			items:   []Item{late(0), refuse(1, "no"), refuse(2, "no")},
			refusal: "no",
		},
		{
			name:    "first-come same refusal from all",
			mk:      func() Collator { return FirstCome(3) },
			items:   []Item{refuse(0, "no"), refuse(1, "no"), refuse(2, "no")},
			refusal: "no",
		},
		{
			name:    "first-come takes a refusal before a result",
			mk:      func() Collator { return FirstCome(3) },
			items:   []Item{refuse(0, "no"), item(1, "x"), item(2, "x")},
			refusal: "no",
		},
		{
			name:    "first-come two different refusals",
			mk:      func() Collator { return FirstCome(3) },
			items:   []Item{refuse(0, "a"), refuse(1, "b"), item(2, "x")},
			refusal: "a",
		},
		{
			name:    "first-come masks a crash before a refusal",
			mk:      func() Collator { return FirstCome(3) },
			items:   []Item{fail(0), refuse(1, "no"), item(2, "x")},
			refusal: "no",
		},
		{
			name:    "first-come deadline is an absence",
			mk:      func() Collator { return FirstCome(3) },
			items:   []Item{late(0), refuse(1, "no"), item(2, "x")},
			refusal: "no",
		},
		{
			name:    "majority 2-2 tie is no majority",
			mk:      func() Collator { return Majority(4) },
			items:   []Item{item(0, "a"), item(1, "b"), item(2, "a"), item(3, "b")},
			wantErr: ErrNoMajority,
		},
		{
			name:    "majority three-way tie is no majority",
			mk:      func() Collator { return Majority(3) },
			items:   []Item{item(0, "a"), item(1, "b"), item(2, "c")},
			wantErr: ErrNoMajority,
		},
		{
			name: "majority tie broken by surviving member",
			mk:   func() Collator { return Majority(5) },
			// 2-2 among the first four; the fifth member settles it.
			items: []Item{item(0, "a"), item(1, "b"), item(2, "a"), item(3, "b"), item(4, "a")},
			want:  "a",
		},
		{
			name:    "majority all but one crashed",
			mk:      func() Collator { return Majority(3) },
			items:   []Item{fail(0), item(1, "x"), fail(2)},
			wantErr: ErrNoMajority,
		},
		{
			name:    "quorum one vote below threshold",
			mk:      func() Collator { return Quorum(5, 3) },
			items:   []Item{item(0, "v"), item(1, "v"), item(2, "w"), fail(3), fail(4)},
			wantErr: ErrNoQuorum,
		},
		{
			name:  "quorum met exactly at threshold",
			mk:    func() Collator { return Quorum(5, 3) },
			items: []Item{item(0, "v"), item(1, "w"), item(2, "v"), item(3, "v")},
			want:  "v",
		},
		{
			name:  "quorum k=1 degenerates to first-come",
			mk:    func() Collator { return Quorum(3, 1) },
			items: []Item{fail(0), item(1, "late"), item(2, "later")},
			want:  "late",
		},
		{
			name: "first-come ignores straggler after decision",
			mk:   func() Collator { return FirstCome(3) },
			// feed stops at the first Add returning true, as core's Call does;
			// the straggler below must not change the result.
			items: []Item{item(0, "fast"), item(1, "slow"), item(2, "slower")},
			want:  "fast",
		},
		{
			name:  "first-come failure then success",
			mk:    func() Collator { return FirstCome(3) },
			items: []Item{fail(0), item(1, "ok"), item(2, "no")},
			want:  "ok",
		},
		{
			name: "custom collator returning error",
			mk: func() Collator {
				return New(2, func(items []Item) ([]byte, error) {
					return nil, errors.New("collating function failed")
				})
			},
			items:   []Item{item(0, "x"), item(1, "y")},
			wantErr: nil, // checked by message below
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := feed(tt.mk(), tt.items...)
			if tt.name == "custom collator returning error" {
				if err == nil || err.Error() != "collating function failed" {
					t.Fatalf("err = %v, want the collating function's own error", err)
				}
				return
			}
			if tt.refusal != "" {
				if app, ok := err.(*AppError); !ok || app.Msg != tt.refusal || got != nil {
					t.Fatalf("result = %q, %v; want the refusal %q", got, err, tt.refusal)
				}
				return
			}
			if !errors.Is(err, tt.wantErr) {
				t.Fatalf("err = %v, want %v", err, tt.wantErr)
			}
			if tt.wantErr == nil && string(got) != tt.want {
				t.Fatalf("result = %q, want %q", got, tt.want)
			}
		})
	}
}

// TestFirstComeStragglerAfterDecision feeds a straggler into a
// collator that has already decided — the generator pattern of §7.4
// keeps draining member replies after computation proceeds — and
// verifies the decision stands.
func TestFirstComeStragglerAfterDecision(t *testing.T) {
	c := FirstCome(3)
	if !c.Add(Item{Member: 0, Data: []byte("winner")}) {
		t.Fatal("first-come did not decide on the first arrival")
	}
	// Stragglers after the decision.
	c.Add(Item{Member: 1, Data: []byte("loser")})
	c.Add(Item{Member: 2, Err: ErrMemberDown})
	got, err := c.Result()
	if err != nil || string(got) != "winner" {
		t.Fatalf("Result = %q, %v; want \"winner\", nil", got, err)
	}
}

// TestMajorityStragglerAfterDecision: a late divergent reply must not
// overturn a majority already reached.
func TestMajorityStragglerAfterDecision(t *testing.T) {
	c := Majority(3)
	c.Add(Item{Member: 0, Data: []byte("v")})
	if !c.Add(Item{Member: 1, Data: []byte("v")}) {
		t.Fatal("majority of 3 did not decide at 2 identical replies")
	}
	c.Add(Item{Member: 2, Data: []byte("w")})
	got, err := c.Result()
	if err != nil || string(got) != "v" {
		t.Fatalf("Result = %q, %v; want \"v\", nil", got, err)
	}
}

func ExampleMajority() {
	c := Majority(3)
	c.Add(Item{Member: 0, Data: []byte("yes")})
	c.Add(Item{Member: 1, Data: []byte("no")})
	c.Add(Item{Member: 2, Data: []byte("yes")})
	v, _ := c.Result()
	fmt.Println(string(v))
	// Output: yes
}

// TestCollatorsCopyWhatTheyKeep: an item's Data is valid only during
// the Add that receives it (core hands a collator each member's return
// while the message layer still holds it), so every collator's Result
// must survive each Data buffer being overwritten once Add returns,
// and a Func given to New still gets items that own their bytes.
func TestCollatorsCopyWhatTheyKeep(t *testing.T) {
	join := func(items []Item) ([]byte, error) {
		var parts [][]byte
		for _, it := range items {
			parts = append(parts, it.Data)
		}
		return bytes.Join(parts, []byte("+")), nil
	}
	for _, tc := range []struct {
		name string
		mk   func(n int) Collator
		want string
	}{
		{"unanimous", Unanimous, "vote"},
		{"first-come", FirstCome, "vote"},
		{"majority", Majority, "vote"},
		{"quorum", func(n int) Collator { return Quorum(n, 2) }, "vote"},
		{"new", func(n int) Collator { return New(n, join) }, "vote+vote+vote"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.mk(3)
			for m := 0; m < 3; m++ {
				buf := []byte("vote")
				done := c.Add(Item{Member: m, Data: buf})
				copy(buf, "XXXX")
				if done {
					break
				}
			}
			got, err := c.Result()
			if err != nil || string(got) != tc.want {
				t.Fatalf("Result = %q, %v after the buffers were overwritten; want %q", got, err, tc.want)
			}
		})
	}
}
