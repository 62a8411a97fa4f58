package core

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"circus/internal/trace"
)

// This file implements the self-healing call layer: a bounded-retry
// wrapper around the replicated procedure call of client.go that
// recovers from the failures a troupe survives by design — member
// crashes, stale bindings after a binder-driven reconfiguration
// (§6.2), and transient partitions — without surfacing them to the
// application.
//
// Retry safety. A retried call is a NEW replicated call: each attempt
// draws a fresh call path, so the exactly-once guarantee of §4.1
// applies per attempt, not per logical operation. The caller must
// therefore ensure that re-executing the procedure is acceptable —
// either the procedure is idempotent, or the failure mode provably
// precluded execution. An AppError is never retried: it is the
// procedure's own verdict, proof that an execution completed. Which
// member errors an attempt masks is the collator's rule
// (internal/collate): under the default unanimous collator a refusal
// beside a result fails the attempt with ErrDisagreement, retried like
// a crash since some members executed, and one stale rejection fails
// it with the StaleBindingError, which rebinds and retries at once.

// Backoff shapes the delay between retry attempts: exponential growth
// with multiplicative jitter, the standard defense against retry
// storms synchronizing across clients.
type Backoff struct {
	// Initial is the delay before the first retry. Zero means 25ms.
	Initial time.Duration
	// Max caps the delay. Zero means 1 second.
	Max time.Duration
}

// The delay doubles each attempt, and each delay is spread uniformly
// over ±20 % of its nominal value.
const (
	backoffFactor = 2
	backoffJitter = 0.2
)

func (b Backoff) withDefaults() Backoff {
	if b.Initial == 0 {
		b.Initial = 25 * time.Millisecond
	}
	if b.Max == 0 {
		b.Max = time.Second
	}
	return b
}

// delay returns the nominal delay before retry attempt n (n ≥ 1).
func (b Backoff) delay(n int) time.Duration {
	d := float64(b.Initial)
	for i := 1; i < n; i++ {
		d *= backoffFactor
		if d >= float64(b.Max) {
			break
		}
	}
	if d > float64(b.Max) {
		d = float64(b.Max)
	}
	return time.Duration(d)
}

// Suspicion tracks members recently presumed crashed, so that a
// resilient caller does not wait out a fresh crash-detection timeout
// against the same dead member on every attempt. Suspicion is a
// hint, never a verdict: suspected members still receive every call
// message (preserving exactly-once execution at all live members);
// they are merely excluded from the set the caller waits on. An entry
// expires after its TTL, or immediately when the member answers.
type Suspicion struct {
	mu    sync.Mutex
	until map[ModuleAddr]time.Time
}

// NewSuspicion returns an empty tracker, shareable among callers.
func NewSuspicion() *Suspicion {
	return &Suspicion{until: make(map[ModuleAddr]time.Time)}
}

// Suspect records m as presumed crashed for the next ttl.
func (s *Suspicion) Suspect(m ModuleAddr, ttl time.Duration) {
	s.mu.Lock()
	s.until[m] = time.Now().Add(ttl)
	s.mu.Unlock()
}

// Forgive clears any suspicion of m.
func (s *Suspicion) Forgive(m ModuleAddr) {
	s.mu.Lock()
	delete(s.until, m)
	s.mu.Unlock()
}

// Suspected reports whether m is currently suspected.
func (s *Suspicion) Suspected(m ModuleAddr) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.until[m]
	if !ok {
		return false
	}
	if time.Now().After(t) {
		delete(s.until, m)
		return false
	}
	return true
}

// ResilientOptions configures a ResilientCaller.
type ResilientOptions struct {
	// MaxAttempts bounds the retry budget, counting the first attempt.
	// Zero means 8.
	MaxAttempts int
	// Backoff shapes inter-attempt delays.
	Backoff Backoff
	// SuspicionTTL is how long a member presumed crashed is skipped
	// before being given another chance. Zero means 2 seconds.
	SuspicionTTL time.Duration
	// Seed seeds the jitter source, for reproducible campaigns. Zero
	// draws from the clock.
	Seed int64
	// Rebind, when set, is invoked on a StaleBindingError with the
	// stale troupe; it returns the fresh binding (typically from the
	// binding agent, §6.2). A successful rebind retries immediately —
	// staleness is not congestion, so it is not backed off.
	Rebind func(ctx context.Context, stale Troupe) (Troupe, error)
	// RebindOnTotalFailure, when set (and Rebind is set), also consults
	// the binder after an attempt in which every member failed. The
	// default rebinds only on StaleBindingError — a member's explicit
	// verdict — because total silence usually means a partition, where
	// the binding is fine and re-looking it up is wasted load. A troupe
	// that can be REPLACED wholesale (every member swapped, as mesh
	// rebalancing does) never produces a stale verdict: the old members
	// are simply gone, so total failure is the only staleness signal
	// there is.
	RebindOnTotalFailure bool
	// Suspicion, when set, is a tracker shared with other callers of
	// the same process, so one caller's crash evidence benefits all.
	// Nil means a private tracker.
	Suspicion *Suspicion
}

func (o ResilientOptions) withDefaults() ResilientOptions {
	if o.MaxAttempts == 0 {
		o.MaxAttempts = 8
	}
	o.Backoff = o.Backoff.withDefaults()
	if o.SuspicionTTL == 0 {
		o.SuspicionTTL = 2 * time.Second
	}
	if o.Seed == 0 {
		o.Seed = time.Now().UnixNano()
	}
	if o.Suspicion == nil {
		o.Suspicion = NewSuspicion()
	}
	return o
}

// ResilientStats counts a caller's recovery actions.
type ResilientStats struct {
	// Attempts is the total number of call attempts issued.
	Attempts int64
	// Retries is the number of attempts after the first.
	Retries int64
	// Rebinds is the number of successful rebinds after a stale
	// binding was detected.
	Rebinds int64
	// Suspected is the number of member-down observations recorded.
	Suspected int64
}

// ResilientCaller wraps a Runtime's replicated call with a bounded
// retry budget, exponential backoff with seeded jitter, automatic
// rebinding on stale-binding errors, and per-member suspicion so
// known-dead members are skipped instead of re-timed-out.
type ResilientCaller struct {
	rt   *Runtime
	opts ResilientOptions
	sus  *Suspicion

	rngMu sync.Mutex
	rng   *rand.Rand

	mu     sync.Mutex
	troupe Troupe

	attempts  atomic.Int64
	retries   atomic.Int64
	rebinds   atomic.Int64
	suspected atomic.Int64
}

// NewResilientCaller wraps rt for calls to t.
func NewResilientCaller(rt *Runtime, t Troupe, opts ResilientOptions) *ResilientCaller {
	opts = opts.withDefaults()
	return &ResilientCaller{
		rt:     rt,
		opts:   opts,
		sus:    opts.Suspicion,
		rng:    rand.New(rand.NewSource(opts.Seed)),
		troupe: t,
	}
}

// Troupe returns the current binding.
func (c *ResilientCaller) Troupe() Troupe {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.troupe
}

// SetTroupe installs a fresh binding and forgives its members: a new
// binding is fresh evidence of membership, so stale suspicion must
// not linger against members the binder just vouched for.
func (c *ResilientCaller) SetTroupe(t Troupe) {
	c.mu.Lock()
	c.troupe = t
	c.mu.Unlock()
	for _, m := range t.Members {
		c.sus.Forgive(m)
	}
}

// Stats returns a snapshot of the recovery counters.
func (c *ResilientCaller) Stats() ResilientStats {
	return ResilientStats{
		Attempts:  c.attempts.Load(),
		Retries:   c.retries.Load(),
		Rebinds:   c.rebinds.Load(),
		Suspected: c.suspected.Load(),
	}
}

// Call performs a replicated procedure call, transparently retrying
// member crashes and partitions within the retry budget and rebinding
// on stale bindings. See the file comment for retry safety: args may
// be executed once per attempt.
func (c *ResilientCaller) Call(ctx context.Context, proc uint16, args []byte, opts CallOptions) ([]byte, error) {
	var lastErr error
	for attempt := 1; attempt <= c.opts.MaxAttempts; attempt++ {
		if attempt > 1 {
			c.retries.Add(1)
		}
		c.attempts.Add(1)
		res, staleSeen, err := c.attempt(ctx, proc, args, opts)
		if err == nil {
			// The call succeeded, but some member rejected the binding
			// as stale — a suspected member, or one a non-unanimous
			// collator counted as absent: members that already left the
			// troupe may still answer under the old ID (§6.2 only
			// informs the current membership), so refresh the binding
			// now rather than keep calling a stale configuration.
			if staleSeen {
				c.rebind(ctx)
			}
			return res, nil
		}
		lastErr = err

		// The procedure itself raised the error: an execution
		// completed, so retrying would re-execute. Surface it.
		var app *AppError
		if errors.As(err, &app) {
			return nil, err
		}
		if ctx.Err() != nil {
			return nil, lastErr
		}
		if attempt == c.opts.MaxAttempts {
			break
		}

		// Stale binding: ask the binder for the fresh troupe and retry
		// immediately (§6.2's recovery path).
		var stale *StaleBindingError
		if errors.As(err, &stale) && c.opts.Rebind != nil {
			if rerr := c.rebind(ctx); rerr == nil {
				continue
			} else {
				lastErr = rerr
			}
		} else if c.opts.RebindOnTotalFailure && c.opts.Rebind != nil {
			// No member produced a verdict; the troupe may have been
			// replaced wholesale. Best effort: a fresh binding (if the
			// binder has one) is installed before the backed-off retry; a
			// failed lookup leaves the old binding in place.
			_ = c.rebind(ctx)
		}

		if serr := c.sleep(ctx, c.backoffDelay(attempt)); serr != nil {
			return nil, lastErr
		}
	}
	return nil, lastErr
}

// rebind asks the binder for the fresh troupe and installs it.
func (c *ResilientCaller) rebind(ctx context.Context) error {
	if c.opts.Rebind == nil {
		return errors.New("core: no rebind hook configured")
	}
	fresh, err := c.opts.Rebind(ctx, c.Troupe())
	if err != nil {
		return err
	}
	c.SetTroupe(fresh)
	c.rebinds.Add(1)
	if c.rt.tr.Enabled() {
		c.rt.tr.Emit(trace.Event{Kind: trace.KindRebind,
			Troupe: uint64(fresh.ID), N: fresh.Degree()})
	}
	return nil
}

// backoffDelay applies seeded jitter to the nominal delay before the
// retry following attempt n.
func (c *ResilientCaller) backoffDelay(n int) time.Duration {
	d := c.opts.Backoff.delay(n)
	c.rngMu.Lock()
	f := 1 + backoffJitter*(2*c.rng.Float64()-1)
	c.rngMu.Unlock()
	return time.Duration(float64(d) * f)
}

func (c *ResilientCaller) sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// attempt performs one replicated call over the current binding. The
// call message still goes to EVERY member — suspected ones included,
// so that every live member executes the call and troupe state does
// not diverge — but collation waits only for the unsuspected members
// (callState.collate). Every member's item, early or late, reaches the
// tracker from its leg: answering clears suspicion, silence sustains
// it.
func (c *ResilientCaller) attempt(ctx context.Context, proc uint16, args []byte, opts CallOptions) ([]byte, bool, error) {
	t := c.Troupe()
	if t.Degree() == 0 {
		return nil, false, ErrTroupeDown
	}
	res, _, stale, err := c.rt.collated(ctx, t, proc, args, opts, c)
	return res, stale, err
}

// observe updates the suspicion tracker with one member's outcome. It
// runs on the member's leg, under the message layer's session lock.
func (c *ResilientCaller) observe(m ModuleAddr, err error) {
	switch {
	case err == nil:
		c.sus.Forgive(m)
	case errors.Is(err, ErrMemberDown):
		c.sus.Suspect(m, c.opts.SuspicionTTL)
		c.suspected.Add(1)
	}
}
