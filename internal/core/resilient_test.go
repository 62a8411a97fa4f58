package core

import (
	"context"
	"testing"
	"time"

	"circus/internal/transport"
)

func TestBackoffDelaySchedule(t *testing.T) {
	b := Backoff{Initial: 10 * time.Millisecond, Max: 80 * time.Millisecond}.withDefaults()
	want := []time.Duration{
		10 * time.Millisecond,
		20 * time.Millisecond,
		40 * time.Millisecond,
		80 * time.Millisecond,
		80 * time.Millisecond, // capped
	}
	for i, w := range want {
		if got := b.delay(i + 1); got != w {
			t.Errorf("delay(%d) = %v, want %v", i+1, got, w)
		}
	}
}

func TestSuspicionTTLAndForgive(t *testing.T) {
	s := NewSuspicion()
	m := ModuleAddr{Addr: transport.Addr{Host: 1, Port: 1}, Module: 0}
	if s.Suspected(m) {
		t.Fatal("fresh tracker suspects")
	}
	s.Suspect(m, 50*time.Millisecond)
	if !s.Suspected(m) {
		t.Fatal("not suspected after Suspect")
	}
	s.Forgive(m)
	if s.Suspected(m) {
		t.Fatal("suspected after Forgive")
	}
	s.Suspect(m, 30*time.Millisecond)
	time.Sleep(60 * time.Millisecond)
	if s.Suspected(m) {
		t.Fatal("suspicion outlived its TTL")
	}
}

// TestResilientSkipsSuspectedMember: after one call observes a member
// crash, the next call must not wait out crash detection against the
// same member again — it collates over the unsuspected members only.
func TestResilientSkipsSuspectedMember(t *testing.T) {
	c := newCluster(t, 41, 3, ExportOptions{})
	rc := NewResilientCaller(c.client, c.troupe, ResilientOptions{Seed: 1})

	c.net.Crash(c.troupe.Members[2].Addr.Host)

	// First call: the crashed member is still waited on, so this call
	// pays for crash detection; the unanimous collator masks the
	// failure (§4.3.4) and the call succeeds on the two live members.
	start := time.Now()
	res, err := rc.Call(context.Background(), 1, []byte("a"), CallOptions{})
	if err != nil {
		t.Fatalf("first call: %v", err)
	}
	if string(res) != "a" {
		t.Fatalf("first call returned %q", res)
	}
	firstTook := time.Since(start)
	if got := rc.Stats().Suspected; got < 1 {
		t.Fatalf("Suspected = %d after observing a crash, want >= 1", got)
	}

	// Second call: the dead member is suspected and skipped, so the
	// call decides as soon as the live members answer.
	start = time.Now()
	if _, err := rc.Call(context.Background(), 1, []byte("b"), CallOptions{}); err != nil {
		t.Fatalf("second call: %v", err)
	}
	secondTook := time.Since(start)
	if secondTook > 100*time.Millisecond {
		t.Fatalf("second call took %v (first: %v): suspected member not skipped", secondTook, firstTook)
	}
}

// TestResilientRetriesThroughOutage: a call issued while the whole
// server troupe is unreachable must succeed transparently once the
// outage ends, within the retry budget.
func TestResilientRetriesThroughOutage(t *testing.T) {
	c := newCluster(t, 42, 1, ExportOptions{})
	host := c.troupe.Members[0].Addr.Host
	c.net.Crash(host)
	time.AfterFunc(250*time.Millisecond, func() { c.net.Restart(host) })

	rc := NewResilientCaller(c.client, c.troupe, ResilientOptions{
		MaxAttempts:  12,
		Backoff:      Backoff{Initial: 20 * time.Millisecond, Max: 100 * time.Millisecond},
		SuspicionTTL: 10 * time.Millisecond, // keep retrying the sole member promptly
		Seed:         2,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	res, err := rc.Call(ctx, 1, []byte("through"), CallOptions{Timeout: 300 * time.Millisecond})
	if err != nil {
		t.Fatalf("call through outage: %v (stats %+v)", err, rc.Stats())
	}
	if string(res) != "through" {
		t.Fatalf("call returned %q", res)
	}
	if rc.Stats().Retries < 1 {
		t.Fatalf("Retries = %d, want >= 1 (outage lasted 250ms)", rc.Stats().Retries)
	}
}

// TestResilientRebindOnStaleBinding: when the troupe is reconfigured
// (its ID changes, §6.2), a call through the old binding must rebind
// via the hook and succeed without surfacing an error.
func TestResilientRebindOnStaleBinding(t *testing.T) {
	c := newCluster(t, 43, 2, ExportOptions{})

	// Reconfigure: same members, new incarnation. The client's cached
	// binding still bears the old ID, which members now reject.
	fresh := Troupe{ID: 0x9999, Members: c.troupe.Members}
	for i, rt := range c.servers {
		rt.SetTroupeID(c.troupe.Members[i].Module, fresh.ID)
	}

	rebinds := 0
	rc := NewResilientCaller(c.client, c.troupe, ResilientOptions{
		Seed: 3,
		Rebind: func(ctx context.Context, stale Troupe) (Troupe, error) {
			rebinds++
			return fresh, nil
		},
	})
	res, err := rc.Call(context.Background(), 1, []byte("hi"), CallOptions{})
	if err != nil {
		t.Fatalf("call across reconfiguration: %v", err)
	}
	if string(res) != "hi" {
		t.Fatalf("call returned %q", res)
	}
	if rebinds != 1 || rc.Stats().Rebinds != 1 {
		t.Fatalf("rebinds = %d, stats.Rebinds = %d, want 1", rebinds, rc.Stats().Rebinds)
	}
	if rc.Troupe().ID != fresh.ID {
		t.Fatalf("binding not refreshed: %v", rc.Troupe().ID)
	}
}

// TestResilientAppErrorNotRetried: an application error proves an
// execution completed, so the resilient caller must surface it
// immediately rather than re-execute the procedure.
func TestResilientAppErrorNotRetried(t *testing.T) {
	c := newCluster(t, 44, 1, ExportOptions{})
	rc := NewResilientCaller(c.client, c.troupe, ResilientOptions{Seed: 4})
	_, err := rc.Call(context.Background(), 2, nil, CallOptions{}) // proc 2 always fails
	if err == nil {
		t.Fatal("expected application error")
	}
	if got := rc.Stats().Attempts; got != 1 {
		t.Fatalf("Attempts = %d, want 1 (app errors must not be retried)", got)
	}
	if got := c.totalExecs(); got != 1 {
		t.Fatalf("executions = %d, want exactly 1", got)
	}
}
