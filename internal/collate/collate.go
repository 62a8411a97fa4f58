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
package collate

import (
	"bytes"
	"errors"
	"sort"
)

// Item is one member's contribution to a replicated exchange: either a
// message or a member-level failure (crash, §4.3.5).
type Item struct {
	Member int // index of the troupe member
	Data   []byte
	Err    error
}

// Collator reduces a stream of items to one result. Add is called as
// items arrive and returns true once the collator has decided; Result
// may be called once Add returned true or the stream is exhausted.
type Collator interface {
	Add(it Item) (done bool)
	Result() ([]byte, error)
}

var (
	// ErrDisagreement is raised by the unanimous collator when troupe
	// members return different messages — the error detection that
	// waiting for all messages buys (§4.3.4).
	ErrDisagreement = errors.New("collate: troupe members disagree")
	// ErrNoMajority is raised by the majority collator when no value
	// is returned by more than half the troupe.
	ErrNoMajority = errors.New("collate: no majority value")
	// ErrAllFailed is raised when every troupe member failed.
	ErrAllFailed = errors.New("collate: all troupe members failed")
	// ErrNoQuorum is raised by Quorum when too few identical messages
	// remain achievable.
	ErrNoQuorum = errors.New("collate: quorum unreachable")
)

// Unanimous returns the default Circus collator (§4.3.4): it waits for
// all n members, demands bit-identical messages, and reports
// disagreement otherwise. Members that fail (crash) are excluded, as
// the paper's client proceeds with the messages of the members that
// are still available.
func Unanimous(n int) Collator { return &unanimous{n: n} }

type unanimous struct {
	n       int
	seen    int
	have    bool
	first   []byte
	failed  int
	badErr  error
	decided bool
}

func (u *unanimous) Add(it Item) bool {
	u.seen++
	if it.Err != nil {
		u.failed++
	} else if !u.have {
		u.have = true
		u.first = it.Data
	} else if !bytes.Equal(u.first, it.Data) {
		u.badErr = ErrDisagreement
		u.decided = true
	}
	return u.decided || u.seen >= u.n
}

func (u *unanimous) Result() ([]byte, error) {
	if u.badErr != nil {
		return nil, u.badErr
	}
	if !u.have {
		return nil, ErrAllFailed
	}
	return u.first, nil
}

// FirstCome returns the collator that accepts the first message to
// arrive, forfeiting error detection for speed (§4.3.4): execution
// time is determined by the fastest member of each troupe.
func FirstCome(n int) Collator { return &firstCome{n: n} }

type firstCome struct {
	n    int
	seen int
	have bool
	data []byte
}

func (f *firstCome) Add(it Item) bool {
	f.seen++
	if it.Err == nil && !f.have {
		f.have = true
		f.data = it.Data
		return true
	}
	return f.seen >= f.n
}

func (f *firstCome) Result() ([]byte, error) {
	if !f.have {
		return nil, ErrAllFailed
	}
	return f.data, nil
}

// Majority returns the majority-voting collator (§4.3.6, Figure 7.10):
// the result is a message returned by more than half of the n troupe
// members. It decides as soon as some message reaches the threshold.
func Majority(n int) Collator {
	q := Quorum(n, n/2+1).(*quorum)
	q.majority = true
	return q
}

// Quorum returns a collator that accepts any message returned by at
// least k of the n members — the building block for weighted-voting
// style schemes (§4.3.6 notes the framework expresses Gifford's
// weighted voting).
func Quorum(n, k int) Collator {
	if k < 1 {
		k = 1
	}
	return &quorum{n: n, k: k, counts: make(map[string]int)}
}

type quorum struct {
	n, k     int
	majority bool
	seen     int
	counts   map[string]int
	winner   []byte
	haveWin  bool
}

func (q *quorum) Add(it Item) bool {
	q.seen++
	if it.Err == nil && !q.haveWin {
		s := string(it.Data)
		q.counts[s]++
		if q.counts[s] >= q.k {
			q.haveWin = true
			q.winner = it.Data
		}
	}
	if q.haveWin {
		return true
	}
	// Decide early if no message can still reach the quorum.
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
		return q.winner, nil
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
// applies f to whatever arrived. It is the programmable hook the
// paper's generator-based explicit replication provides. f is called
// only when at least one member succeeded; when none did the result is
// ErrAllFailed, which callers such as core's Call turn into the
// members' own verdict, so a unanimous refusal reaches the caller as
// that refusal.
func New(n int, f Func) Collator { return &custom{n: n, f: f} }

type custom struct {
	n     int
	f     Func
	items []Item
}

func (c *custom) Add(it Item) bool {
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

// Run drains items (a generator of messages from a troupe, Figure
// 7.11) into c until it decides or n items have been consumed, then
// returns the collated result.
func Run(items <-chan Item, n int, c Collator) ([]byte, error) {
	for i := 0; i < n; i++ {
		it, ok := <-items
		if !ok {
			break
		}
		if c.Add(it) {
			break
		}
	}
	return c.Result()
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
