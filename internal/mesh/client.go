package mesh

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"circus/internal/core"
	"circus/internal/ringmaster"
)

// Options configures a mesh client.
type Options struct {
	// Resilient configures the per-shard resilient callers. The client
	// forces RebindOnTotalFailure on and, when no Suspicion tracker is
	// given, shares one tracker across all shards.
	Resilient core.ResilientOptions
	// HotKeyRate is the per-key read rate (reads/second, EWMA-smoothed)
	// above which spread reads widen from the key's affinity member to
	// whole-troupe rotation. Zero means 64; negative disables widening.
	HotKeyRate float64
}

// Routing bounds of a mesh client call.
const (
	// maxRedirects bounds wrong-shard redirects per call. Conflicting
	// maps (a guard behind the client, or vice versa, mid-push) can
	// bounce a call between shards; the bound turns a routing livelock
	// into an error.
	maxRedirects = 4
	// parkWait is the delay before retrying a parked key.
	parkWait = 20 * time.Millisecond
	// maxParkWaits bounds those retries; a migration stuck longer than
	// maxParkWaits*parkWait surfaces as an error.
	maxParkWaits = 250
)

func (o Options) withDefaults() Options {
	if o.HotKeyRate == 0 {
		o.HotKeyRate = 64
	}
	o.Resilient.RebindOnTotalFailure = true
	if o.Resilient.Suspicion == nil {
		o.Resilient.Suspicion = core.NewSuspicion()
	}
	return o
}

// ClientStats counts a mesh client's routing recoveries and its
// spread-read traffic.
type ClientStats struct {
	// Redirects counts wrong-shard refusals absorbed.
	Redirects int64
	// Parks counts parked refusals waited out.
	Parks int64
	// Refreshes counts shard-map refetches from the Ringmaster.
	Refreshes int64
	// SpreadReads counts reads served by a single member.
	SpreadReads int64
	// StaleBounces counts spread refusals by members behind the token.
	StaleBounces int64
	// Escalations counts spread reads that fell back to the strict
	// replicated read.
	Escalations int64
	// HotWidenings counts cold→hot transitions that widened a key from
	// its affinity member to whole-troupe rotation.
	HotWidenings int64
	// StaleServes counts protocol violations observed by the client: a
	// member answered a spread read from a position BELOW the demanded
	// token. Always zero with correct guards; the planted stale-read
	// bug of the chaos campaigns shows up here.
	StaleServes int64
}

// Client is the routing half of a mesh service: it holds a cached
// shard map, routes each keyed call to its owner shard over a pooled
// resilient caller (one per shard, with the §6.1 binding cache and
// retry/rebind machinery underneath), and reconciles with the servers
// through their refusals — a wrong-shard answer triggers a map refresh
// and a re-route, a parked answer a brief backoff, exactly as a stale
// troupe ID triggers a rebind.
type Client struct {
	rt      *core.Runtime
	binder  *ringmaster.Client
	service string
	opts    Options

	mu      sync.Mutex
	m       *ShardMap
	ring    *Ring
	callers map[string]*core.ResilientCaller
	tokens  map[string]uint64 // shard -> position token (spread.go)
	hot     hotKeys           // per-key read rates (spread.go)

	rr atomic.Uint64 // hot-key rotation cursor

	redirects    atomic.Int64
	parks        atomic.Int64
	refreshes    atomic.Int64
	spreadReads  atomic.Int64
	staleBounces atomic.Int64
	escalations  atomic.Int64
	hotWidenings atomic.Int64
	staleServes  atomic.Int64
}

// NewClient fetches the service's shard map from the binding agent
// and returns a routing client.
func NewClient(ctx context.Context, rt *core.Runtime, binder *ringmaster.Client, service string, opts Options) (*Client, error) {
	c := &Client{
		rt:      rt,
		binder:  binder,
		service: service,
		opts:    opts.withDefaults(),
		callers: make(map[string]*core.ResilientCaller),
		tokens:  make(map[string]uint64),
	}
	c.hot = hotKeys{threshold: c.opts.HotKeyRate, rate: make(map[string]*hotStat)}
	if err := c.Refresh(ctx); err != nil {
		return nil, err
	}
	return c, nil
}

// Map returns the cached shard map.
func (c *Client) Map() *ShardMap {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m
}

// Stats returns a snapshot of the routing counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		Redirects:    c.redirects.Load(),
		Parks:        c.parks.Load(),
		Refreshes:    c.refreshes.Load(),
		SpreadReads:  c.spreadReads.Load(),
		StaleBounces: c.staleBounces.Load(),
		Escalations:  c.escalations.Load(),
		HotWidenings: c.hotWidenings.Load(),
		StaleServes:  c.staleServes.Load(),
	}
}

// Refresh refetches the shard map from the binding agent, installing
// it if its epoch is newer, and drops callers of shards that left the
// map. It is the only way a client learns a new map; wrong-shard and
// parked refusals trigger it.
func (c *Client) Refresh(ctx context.Context) error {
	m, err := FetchShardMap(ctx, c.binder, c.service)
	if err != nil {
		return err
	}
	c.refreshes.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m != nil && m.Epoch <= c.m.Epoch {
		return nil
	}
	c.m, c.ring = m, m.Ring()
	live := make(map[string]bool, len(m.Shards))
	for _, s := range m.Shards {
		live[s] = true
	}
	for name := range c.callers {
		if !live[name] {
			delete(c.callers, name)
		}
	}
	return nil
}

// routes returns the cached map/ring pair.
func (c *Client) routes() (*ShardMap, *Ring) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m, c.ring
}

// caller returns the pooled resilient caller for a shard, importing
// the shard troupe on first use.
func (c *Client) caller(ctx context.Context, shard string) (*core.ResilientCaller, error) {
	c.mu.Lock()
	rc, ok := c.callers[shard]
	c.mu.Unlock()
	if ok {
		return rc, nil
	}
	fresh, err := c.binder.NewResilientCaller(ctx, shard, c.opts.Resilient)
	if err != nil {
		return nil, fmt.Errorf("mesh: importing shard %q: %w", shard, err)
	}
	c.mu.Lock()
	if rc, ok = c.callers[shard]; !ok {
		c.callers[shard] = fresh
		rc = fresh
	}
	c.mu.Unlock()
	return rc, nil
}

// Owner returns the shard currently routing key under the cached map.
func (c *Client) Owner(key string) string {
	_, ring := c.routes()
	if ring == nil {
		return ""
	}
	return ring.Owner(key)
}

// ShardCaller returns the resilient caller for the shard owning key —
// the escape hatch for callers that need call-level control (custom
// collators, direct member access) while still routing by key.
func (c *Client) ShardCaller(ctx context.Context, key string) (string, *core.ResilientCaller, error) {
	_, ring := c.routes()
	if ring == nil {
		return "", nil, fmt.Errorf("mesh: no shard map for %q", c.service)
	}
	shard := ring.Owner(key)
	rc, err := c.caller(ctx, shard)
	return shard, rc, err
}

// Call routes one keyed call to its owner shard, absorbing the
// routing faults: wrong-shard refusals refresh the map and re-route
// (bounded by maxRedirects), parked refusals back off and retry
// (bounded by maxParkWaits), and everything beneath — member crashes,
// stale troupe bindings, partitions — is absorbed by the per-shard
// resilient caller. See ResilientCaller.Call for retry safety: args
// may execute once per attempt.
func (c *Client) Call(ctx context.Context, key string, proc uint16, args []byte, copts core.CallOptions) ([]byte, error) {
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
		res, err := rc.Call(ctx, proc, args, copts)
		if err == nil {
			return res, nil
		}
		if owner, epoch, ok := WrongShard(err); ok {
			c.redirects.Add(1)
			if redirects++; redirects > maxRedirects {
				return nil, fmt.Errorf("mesh: redirect loop routing %q (last owner hint %q): %w", key, owner, err)
			}
			// A guard ahead of us has the map we are missing; a guard
			// behind us will catch up to the one we already have. Either
			// way the binder holds the newest published epoch — refetch
			// and re-route.
			if ferr := c.Refresh(ctx); ferr != nil && epoch > m.Epoch {
				return nil, fmt.Errorf("mesh: stale map (epoch %d < guard's %d) and refresh failed: %w", m.Epoch, epoch, ferr)
			}
			continue
		}
		if _, ok := Parked(err); ok {
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
			_ = c.Refresh(ctx) // the unparking epoch may already be out
			continue
		}
		return nil, err
	}
}
