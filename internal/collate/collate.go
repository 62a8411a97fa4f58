// Package collate implements collators (§4.3.6): functions that reduce
// the set of messages arriving from a troupe to a single result.
//
// Three collators are supported at the protocol level, viewing message
// contents as uninterpreted bits: unanimous, which requires all
// messages to be identical and raises an exception otherwise;
// majority, which performs majority voting; and first-come, which
// accepts the first message to arrive. Computation proceeds as soon as
// enough messages have arrived for the collator to decide — the lazy
// evaluation the paper asks for. Programmers define application-
// specific collators with New (§7.4's explicit replication).
//
// Every collator applies one masking rule. A member's answer is a
// vote: either a result, or a refusal (an AppError, the procedure's
// own verdict in its return message). A presumed crash
// (ErrMemberDown) is masked, as §4.3.1 masks a member's crash.
// Unanimous masks nothing else: any other member error — a stale
// binding, a missing module, the deadline, a closed runtime — decides
// the call with that error. Majority, Quorum and FirstCome count votes
// and treat every other error as an absence.
//
// An Item's Data is valid only during the Add that receives it: core
// hands a collator each member's return while the message layer still
// holds it, so no member's payload is copied on its way in. A collator
// that keeps bytes copies them, and this package's collators copy only
// the first vote they keep, so a unanimous call copies one result, not
// one per member. Add runs on the path that delivers the return, with
// the message layer's session lock held, so it must not block. A Func
// given to New still receives items that own their bytes.
package collate

import (
	"bytes"
	"errors"
	"sort"
)

// Item is one member's contribution to a replicated exchange: a result
// (Err nil), a refusal (Err an *AppError), or a member-level failure
// such as ErrMemberDown (a crash, §4.3.5). A result and a refusal are
// both votes; see the package comment for what is masked, and for how
// long Data is valid.
type Item struct {
	Member int // index of the troupe member
	Data   []byte
	Err    error
}

// Collator reduces a stream of items to one result. Add is called as
// items arrive and returns true once the collator has decided; Result
// may be called once Add returned true or the stream is exhausted. Add
// must copy any Data it keeps (see the package comment).
type Collator interface {
	Add(it Item) (done bool)
	Result() ([]byte, error)
}

// AppError carries an application-level error raised by the remote
// procedure, externalized as a string as the stub compilers of §7.1
// pass exceptions. A collator counts it as the member's vote.
type AppError struct {
	Msg string
}

func (e *AppError) Error() string { return e.Msg }

var (
	// ErrMemberDown reports that a server troupe member was presumed
	// crashed while a call to it was outstanding (§4.3.5). It is the
	// only member error that every collator masks.
	ErrMemberDown = errors.New("core: troupe member presumed crashed")
	// ErrDisagreement is raised by the unanimous collator when troupe
	// members return different messages — the error detection that
	// waiting for all messages buys (§4.3.4).
	ErrDisagreement = errors.New("collate: troupe members disagree")
	// ErrNoMajority is raised by the majority collator when no value
	// is returned by more than half the troupe.
	ErrNoMajority = errors.New("collate: no majority value")
	// ErrAllFailed is raised when no member voted (for New: when no
	// member returned a result).
	ErrAllFailed = errors.New("collate: all troupe members failed")
	// ErrNoQuorum is raised by Quorum when too few identical messages
	// remain achievable.
	ErrNoQuorum = errors.New("collate: quorum unreachable")
)

// Unanimous returns the default Circus collator (§4.3.4): it waits for
// all n members and demands that every vote be the same, bit-identical
// results or refusals with the same message; a result beside a
// refusal, or two different ones, is ErrDisagreement. A presumed crash
// is masked, as the paper's client proceeds with the messages of the
// members still available (§4.3.1). Any other member error decides the
// call with that error as soon as it arrives.
func Unanimous(n int) Collator {
	u := new(UnanimousCollator)
	u.Reset(n)
	return u
}

// UnanimousCollator is the collator Unanimous returns, as a value, so
// that a caller collating many calls can keep one and Reset it for
// each instead of allocating one per call.
type UnanimousCollator struct {
	n, seen int
	have    bool
	data    []byte    // the first vote: a result (copied),
	refusal *AppError // or a refusal
	err     error     // the decision, once one is forced
}

// Reset readies u to collate a call to n members.
func (u *UnanimousCollator) Reset(n int) { *u = UnanimousCollator{n: n} }

func (u *UnanimousCollator) Add(it Item) bool {
	u.seen++
	if u.err == nil {
		switch refusal, refused := it.Err.(*AppError); {
		case it.Err == nil || refused:
			if !u.have {
				u.have, u.data, u.refusal = true, bytes.Clone(it.Data), refusal
			} else if !u.same(it.Data, refusal) {
				u.err = ErrDisagreement
			}
		case it.Err != ErrMemberDown:
			u.err = it.Err
		}
	}
	return u.err != nil || u.seen >= u.n
}

// same reports whether a vote equals the first one.
func (u *UnanimousCollator) same(data []byte, refusal *AppError) bool {
	if refusal == nil || u.refusal == nil {
		return refusal == nil && u.refusal == nil && bytes.Equal(u.data, data)
	}
	return refusal.Msg == u.refusal.Msg
}

func (u *UnanimousCollator) Result() ([]byte, error) {
	switch {
	case u.err != nil:
		return nil, u.err
	case !u.have:
		return nil, ErrAllFailed
	case u.refusal != nil:
		return nil, u.refusal
	}
	return u.data, nil
}

// isVote reports whether it is a result or a refusal. Items carry
// member errors bare, so a type assertion (and == for ErrMemberDown)
// recognises them; errors.As would cost an allocation per reply.
func isVote(it Item) bool {
	_, refused := it.Err.(*AppError)
	return it.Err == nil || refused
}

// FirstCome returns the collator that accepts the first vote to
// arrive, result or refusal, forfeiting error detection for speed
// (§4.3.4): execution time is determined by the fastest member of each
// troupe.
func FirstCome(n int) Collator { return &firstCome{n: n} }

type firstCome struct {
	n, seen int
	have    bool
	first   Item
}

func (f *firstCome) Add(it Item) bool {
	f.seen++
	if !f.have && isVote(it) {
		f.have, f.first = true, it
		f.first.Data = bytes.Clone(it.Data)
		return true
	}
	return f.seen >= f.n
}

func (f *firstCome) Result() ([]byte, error) {
	if !f.have {
		return nil, ErrAllFailed
	}
	return f.first.Data, f.first.Err
}

// Majority returns the majority-voting collator (§4.3.6, Figure 7.10):
// the result is a vote cast by more than half of the n troupe members.
// It decides as soon as some vote reaches the threshold.
func Majority(n int) Collator {
	q := Quorum(n, n/2+1).(*quorum)
	q.majority = true
	return q
}

// Quorum returns a collator that accepts any vote, result or refusal,
// cast by at least k of the n members — the building block for
// weighted-voting style schemes (§4.3.6 notes the framework expresses
// Gifford's weighted voting).
func Quorum(n, k int) Collator {
	if k < 1 {
		k = 1
	}
	return &quorum{n: n, k: k, counts: make(map[vote]int)}
}

// vote is the key under which a quorum counts an answer.
type vote struct {
	refused bool
	answer  string // the result's bytes, or the refusal's message
}

type quorum struct {
	n, k     int
	majority bool
	seen     int
	counts   map[vote]int
	winner   Item
	haveWin  bool
}

func (q *quorum) Add(it Item) bool {
	q.seen++
	if !q.haveWin && isVote(it) {
		v := vote{answer: string(it.Data)}
		if it.Err != nil {
			v = vote{refused: true, answer: it.Err.Error()}
		}
		q.counts[v]++
		if q.counts[v] >= q.k {
			q.haveWin, q.winner = true, it
			q.winner.Data = bytes.Clone(it.Data)
		}
	}
	if q.haveWin {
		return true
	}
	// Decide early if no vote can still reach the quorum.
	remaining := q.n - q.seen
	best := 0
	for _, c := range q.counts {
		if c > best {
			best = c
		}
	}
	return best+remaining < q.k
}

func (q *quorum) Result() ([]byte, error) {
	if q.haveWin {
		return q.winner.Data, q.winner.Err
	}
	if len(q.counts) == 0 {
		return nil, ErrAllFailed
	}
	if q.majority {
		return nil, ErrNoMajority
	}
	return nil, ErrNoQuorum
}

// Func is a terminal collating function applied to the complete set of
// received items, for application-specific collation such as averaging
// sensor readings or approximate agreement (§7.4).
type Func func(items []Item) ([]byte, error)

// New wraps f as a Collator that waits for all n members and then
// applies f to every item that arrived, so f decides for itself what
// to mask. It is the programmable hook the paper's generator-based
// explicit replication provides. f is called only when at least one
// member returned a result; when none did the result is ErrAllFailed,
// and core's Call reports the members' own errors in its place.
func New(n int, f Func) Collator { return &custom{n: n, f: f} }

type custom struct {
	n     int
	f     Func
	items []Item
}

func (c *custom) Add(it Item) bool {
	it.Data = bytes.Clone(it.Data) // f gets items that own their bytes
	c.items = append(c.items, it)
	return len(c.items) >= c.n
}

func (c *custom) Result() ([]byte, error) {
	ok := 0
	for _, it := range c.items {
		if it.Err == nil {
			ok++
		}
	}
	if ok == 0 {
		return nil, ErrAllFailed
	}
	return c.f(c.items)
}

// MedianFloat64 returns the median of vs, the building block of the
// majority collator of Figure 7.10 and of averaging collators for
// clock synchronization (§7.4). It panics on an empty slice.
func MedianFloat64(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return s[m-1]/2 + s[m]/2 // halve before adding: no overflow at extremes
}

// MeanFloat64 returns the arithmetic mean of vs, used by the
// temperature-averaging server of Figure 7.7. It panics on an empty
// slice.
func MeanFloat64(vs []float64) float64 {
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}
