package mesh

import (
	"context"
	"errors"
	"fmt"
	"time"

	"circus/internal/core"
	"circus/internal/trace"
	"circus/internal/wire"
)

// This file is the client half of the spread-read path: instead of the
// strict replicated read — every member executes, the collator demands
// agreement, and a degree-3 shard burns 3× the work per read — the
// client sends the read to ONE member, chosen by load-aware rotation,
// carrying its position token. The member answers only if it has
// applied at least that much state (guard.go's freshness check), so
// the client never observes the service moving backwards; a stale or
// dead member costs a bounce to the next candidate, and a round that
// exhausts the troupe escalates to the strict replicated read the
// caller would have made anyway. Reads therefore scale WITH the
// replication degree, and the escalation ladder — serve, bounce,
// escalate — caps the downside at the old cost.

// hotKeyCap bounds the per-key rate table; reaching it resets the
// table, trading a brief re-warm for a hard memory bound.
const hotKeyCap = 4096

// hotKeys detects hot keys by per-key EWMA read rates. A cold key
// reads from its affinity member (hash-pinned, so each member's cache
// serves a stable key subset); a key whose rate crosses the threshold
// is widened to whole-troupe rotation, spreading its load across every
// replica instead of melting one.
type hotKeys struct {
	threshold float64 // reads/second; <= 0 disables widening
	rate      map[string]*hotStat
}

type hotStat struct {
	ewma float64
	last time.Time
	hot  bool
}

// observe records one read of key and reports whether the key is hot,
// and whether this very read widened it (the cold→hot transition).
func (h *hotKeys) observe(key string, now time.Time) (hot, widened bool) {
	if h.threshold <= 0 {
		return false, false
	}
	s := h.rate[key]
	if s == nil {
		if len(h.rate) >= hotKeyCap {
			h.rate = make(map[string]*hotStat)
		}
		h.rate[key] = &hotStat{last: now}
		return false, false
	}
	dt := now.Sub(s.last).Seconds()
	s.last = now
	if dt <= 0 {
		dt = 1e-6
	}
	// EWMA of the instantaneous rate; alpha 0.2 means ~5 reads of
	// history, quick to catch a flash-hot key, slow enough to ignore a
	// lone burst of two.
	const alpha = 0.2
	s.ewma = alpha*(1/dt) + (1-alpha)*s.ewma
	switch {
	case !s.hot && s.ewma >= h.threshold:
		s.hot = true
		return true, true
	case s.hot && s.ewma < h.threshold/2:
		s.hot = false // hysteresis: cool off at half the trip point
	}
	return s.hot, false
}

// token returns the client's position token for a shard: the highest
// member position any spread reply has shown it. Tokens are per shard
// because positions are per member-ordering — a key migrating to a
// fresh shard starts over under that shard's own counter.
func (c *Client) token(shard string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tokens[shard]
}

// advanceToken raises the shard's token to pos (never lowers it).
func (c *Client) advanceToken(shard string, pos uint64) {
	c.mu.Lock()
	if pos > c.tokens[shard] {
		c.tokens[shard] = pos
	}
	c.mu.Unlock()
}

// readOrder returns the member indexes to try, best first: the
// affinity member for cold keys (stable per-key pinning), whole-troupe
// rotation for hot ones, with suspected members demoted to the back
// in either case.
func (c *Client) readOrder(key string, tr core.Troupe) []int {
	n := tr.Degree()
	c.mu.Lock()
	hot, widened := c.hot.observe(key, time.Now())
	c.mu.Unlock()
	var start int
	if hot {
		start = int(c.rr.Add(1) % uint64(n))
	} else {
		start = int(hash64(key) % uint64(n))
	}
	if widened {
		c.hotWidenings.Add(1)
		if tr := c.rt.Tracer(); tr.EnabledFor(trace.KindSpreadWiden) {
			tr.Emit(trace.Event{Kind: trace.KindSpreadWiden, Detail: key})
		}
	}
	order := make([]int, 0, n)
	var suspected []int
	sus := c.opts.Resilient.Suspicion
	for i := 0; i < n; i++ {
		idx := (start + i) % n
		if sus != nil && sus.Suspected(tr.Members[idx]) {
			suspected = append(suspected, idx)
		} else {
			order = append(order, idx)
		}
	}
	return append(order, suspected...)
}

// spreadOutcome classifies one routing round of a spread read.
type spreadOutcome int

const (
	spreadServed spreadOutcome = iota
	spreadInnerError
	spreadEscalate
	spreadWrongShard
	spreadParked
)

// SpreadRead routes one keyed read to a single member of the owner
// shard, carrying the client's position token; see the file comment
// for the escalation ladder. The read must be of a guarded procedure
// (the guard re-derives the key from proc/args and refuses otherwise).
// copts.Collator is ignored on the one-member path and applies only if
// the read escalates to the strict replicated call; copts.Timeout
// bounds each member attempt. Routing refusals (wrong shard, parked)
// are absorbed exactly as Call absorbs them.
func (c *Client) SpreadRead(ctx context.Context, key string, proc uint16, args []byte, copts core.CallOptions) ([]byte, error) {
	redirects, parks := 0, 0
	for {
		m, ring := c.routes()
		if ring == nil {
			return nil, fmt.Errorf("mesh: no shard map for %q", c.service)
		}
		shard := ring.Owner(key)
		rc, err := c.caller(ctx, shard)
		if err != nil {
			return nil, err
		}
		tr := rc.Troupe()
		if tr.Degree() == 0 {
			return c.escalate(ctx, key, proc, args, copts, core.ErrTroupeDown)
		}
		res, outcome, err := c.spreadRound(ctx, key, shard, tr, proc, args, copts)
		switch outcome {
		case spreadServed:
			return res, nil
		case spreadInnerError:
			return nil, err
		case spreadEscalate:
			return c.escalate(ctx, key, proc, args, copts, err)
		case spreadWrongShard:
			c.redirects.Add(1)
			if redirects++; redirects > maxRedirects {
				return nil, fmt.Errorf("mesh: redirect loop spread-reading %q: %w", key, err)
			}
			_, epoch, _ := WrongShard(err)
			if ferr := c.Refresh(ctx); ferr != nil && epoch > m.Epoch {
				return nil, fmt.Errorf("mesh: stale map (epoch %d < guard's %d) and refresh failed: %w", m.Epoch, epoch, ferr)
			}
			continue
		case spreadParked:
			c.parks.Add(1)
			if parks++; parks > maxParkWaits {
				return nil, fmt.Errorf("mesh: key %q parked too long: %w", key, err)
			}
			t := time.NewTimer(parkWait)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return nil, ctx.Err()
			}
			t.Stop()
			_ = c.Refresh(ctx)
			continue
		}
	}
}

// spreadRound tries each candidate member once. It returns the served
// data, or classifies why the round must be handled above: an inner
// (application) verdict, a routing refusal, or exhaustion (escalate).
func (c *Client) spreadRound(ctx context.Context, key, shard string, tr core.Troupe, proc uint16, args []byte, copts core.CallOptions) ([]byte, spreadOutcome, error) {
	token := c.token(shard)
	sargs, err := wire.Marshal(spreadReadArgs{MinPos: token, Proc: proc, Args: args})
	if err != nil {
		return nil, spreadInnerError, err
	}
	legOpts := core.CallOptions{Timeout: copts.Timeout, AsTroupe: copts.AsTroupe, Thread: copts.Thread}
	ttl := c.opts.Resilient.SuspicionTTL
	if ttl == 0 {
		ttl = 2 * time.Second
	}
	sus := c.opts.Resilient.Suspicion
	var lastErr error = core.ErrTroupeDown
	for _, idx := range c.readOrder(key, tr) {
		raw, err := c.rt.CallMember(ctx, tr, idx, ProcSpreadRead, sargs, legOpts)
		if err == nil {
			var rep spreadReadReply
			if err := wire.Unmarshal(raw, &rep); err != nil {
				lastErr = fmt.Errorf("mesh: garbled spread reply: %w", err)
				continue
			}
			if rep.Pos < token {
				// Protocol violation: the member answered BELOW the
				// position we demanded. A correct guard cannot do this —
				// it is the observable signature of a stale-read bug —
				// so the answer is discarded and counted, never served.
				c.staleServes.Add(1)
				if t := c.rt.Tracer(); t.EnabledFor(trace.KindSpreadStale) {
					t.Emit(trace.Event{Kind: trace.KindSpreadStale,
						Peer: tr.Members[idx].Addr, Member: idx, Troupe: token,
						Detail: "reply below token", N: int(rep.Pos)})
				}
				lastErr = fmt.Errorf("mesh: member served a spread read below the token (pos %d < %d)", rep.Pos, token)
				continue
			}
			c.advanceToken(shard, rep.Pos)
			c.spreadReads.Add(1)
			if t := c.rt.Tracer(); t.EnabledFor(trace.KindSpreadRead) {
				t.Emit(trace.Event{Kind: trace.KindSpreadRead,
					Peer: tr.Members[idx].Addr, Member: idx, Troupe: rep.Pos, Proc: proc})
			}
			return rep.Data, spreadServed, nil
		}
		if _, _, ok := StaleRead(err); ok {
			// Behind the token: bounce to the next candidate.
			c.staleBounces.Add(1)
			if t := c.rt.Tracer(); t.EnabledFor(trace.KindSpreadStale) {
				t.Emit(trace.Event{Kind: trace.KindSpreadStale,
					Peer: tr.Members[idx].Addr, Member: idx, Troupe: token})
			}
			lastErr = err
			continue
		}
		if _, _, ok := WrongShard(err); ok {
			return nil, spreadWrongShard, err
		}
		if _, ok := Parked(err); ok {
			return nil, spreadParked, err
		}
		var app *core.AppError
		if errors.As(err, &app) {
			// The inner procedure's own verdict: an execution completed,
			// so neither bouncing nor escalating may re-run it.
			return nil, spreadInnerError, err
		}
		if errors.Is(err, core.ErrMemberDown) && sus != nil {
			sus.Suspect(tr.Members[idx], ttl)
		}
		lastErr = err
	}
	return nil, spreadEscalate, lastErr
}

// escalate falls back to the strict replicated read — the pre-spread
// path, with whatever collator the caller brought.
func (c *Client) escalate(ctx context.Context, key string, proc uint16, args []byte, copts core.CallOptions, cause error) ([]byte, error) {
	c.escalations.Add(1)
	if t := c.rt.Tracer(); t.EnabledFor(trace.KindSpreadEscalate) {
		e := trace.Event{Kind: trace.KindSpreadEscalate, Proc: proc}
		if cause != nil {
			e.Err = cause.Error()
		}
		t.Emit(e)
	}
	return c.Call(ctx, key, proc, args, copts)
}
