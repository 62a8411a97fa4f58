package ringmaster

import (
	"context"
	"sync"
	"time"

	"circus/internal/core"
	"circus/internal/trace"
	"circus/internal/wire"
)

// Client gives a program access to the Ringmaster troupe via
// replicated procedure calls, with the lookup cache of §6.1: a client
// contacts the binding agent only when it imports an interface and
// reuses the result for all subsequent calls until it proves stale.
type Client struct {
	rt     *core.Runtime
	binder core.Troupe

	mu      sync.Mutex
	byName  map[string]core.Troupe
	byID    map[core.TroupeID][]core.ModuleAddr
	timeout time.Duration
}

// NewClient returns a client of the given Ringmaster troupe.
func NewClient(rt *core.Runtime, binder core.Troupe) *Client {
	return &Client{
		rt:      rt,
		binder:  binder,
		byName:  make(map[string]core.Troupe),
		byID:    make(map[core.TroupeID][]core.ModuleAddr),
		timeout: 10 * time.Second,
	}
}

// Binder returns the Ringmaster troupe this client talks to.
func (c *Client) Binder() core.Troupe { return c.binder }

func (c *Client) call(ctx context.Context, proc uint16, args any) ([]byte, error) {
	data, err := wire.Marshal(args)
	if err != nil {
		return nil, err
	}
	return c.rt.Call(ctx, c.binder, proc, data, core.CallOptions{Timeout: c.timeout})
}

// Register registers a whole troupe under a name and returns its
// troupe ID (§6.2's third-party registration).
func (c *Client) Register(ctx context.Context, name string, members []core.ModuleAddr) (core.TroupeID, error) {
	args := nameMembersArgs{Name: name}
	for _, m := range members {
		args.Members = append(args.Members, toWire(m))
	}
	res, err := c.call(ctx, ProcRegisterTroupe, args)
	if err != nil {
		return 0, err
	}
	var id uint64
	if err := wire.Unmarshal(res, &id); err != nil {
		return 0, err
	}
	c.invalidateName(name)
	return core.TroupeID(id), nil
}

// AddMember adds one member to a (possibly empty) troupe, the export
// path of §6.3: if no troupe is associated with the name, a new one is
// created with the exported module as its only member.
func (c *Client) AddMember(ctx context.Context, name string, m core.ModuleAddr) (core.TroupeID, error) {
	res, err := c.call(ctx, ProcAddTroupeMember, nameMemberArgs{Name: name, Member: toWire(m)})
	if err != nil {
		return 0, err
	}
	var id uint64
	if err := wire.Unmarshal(res, &id); err != nil {
		return 0, err
	}
	c.invalidateName(name)
	return core.TroupeID(id), nil
}

// RemoveMember deletes one member from a troupe (reconfiguration after
// a partial failure, §6.4).
func (c *Client) RemoveMember(ctx context.Context, name string, m core.ModuleAddr) (core.TroupeID, error) {
	res, err := c.call(ctx, ProcRemoveTroupeMember, nameMemberArgs{Name: name, Member: toWire(m)})
	if err != nil {
		return 0, err
	}
	var id uint64
	if err := wire.Unmarshal(res, &id); err != nil {
		return 0, err
	}
	c.invalidateName(name)
	return core.TroupeID(id), nil
}

// LookupByName imports a troupe by name, consulting the cache first
// (§6.1).
func (c *Client) LookupByName(ctx context.Context, name string) (core.Troupe, error) {
	c.mu.Lock()
	if t, ok := c.byName[name]; ok {
		c.mu.Unlock()
		return t, nil
	}
	c.mu.Unlock()
	return c.lookupNameRemote(ctx, name)
}

func (c *Client) lookupNameRemote(ctx context.Context, name string) (core.Troupe, error) {
	res, err := c.call(ctx, ProcLookupByName, name)
	if err != nil {
		return core.Troupe{}, err
	}
	var rep troupeReply
	if err := wire.Unmarshal(res, &rep); err != nil {
		return core.Troupe{}, err
	}
	t := core.Troupe{ID: core.TroupeID(rep.ID)}
	for _, w := range rep.Members {
		t.Members = append(t.Members, fromWire(w))
	}
	c.mu.Lock()
	c.byName[name] = t
	c.byID[t.ID] = t.Members
	c.mu.Unlock()
	return t, nil
}

// LookupByID implements core.Resolver so that a Client can serve as a
// runtime's troupe resolver for many-to-one collation (§4.3.2),
// consulting the local cache before the binding agent.
func (c *Client) LookupByID(id core.TroupeID) ([]core.ModuleAddr, error) {
	c.mu.Lock()
	if ms, ok := c.byID[id]; ok {
		c.mu.Unlock()
		return ms, nil
	}
	c.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), c.timeout)
	defer cancel()
	res, err := c.call(ctx, ProcLookupByID, uint64(id))
	if err != nil {
		return nil, err
	}
	var rep troupeReply
	if err := wire.Unmarshal(res, &rep); err != nil {
		return nil, err
	}
	var members []core.ModuleAddr
	for _, w := range rep.Members {
		members = append(members, fromWire(w))
	}
	c.mu.Lock()
	c.byID[core.TroupeID(rep.ID)] = members
	c.mu.Unlock()
	return members, nil
}

// Rebind reports a stale binding (as a hint, §6.1) and returns the
// current one, replacing the cache entry.
func (c *Client) Rebind(ctx context.Context, name string, stale core.Troupe) (core.Troupe, error) {
	c.invalidateName(name)
	res, err := c.call(ctx, ProcRebind, rebindArgs{Name: name, StaleID: uint64(stale.ID)})
	if err != nil {
		return core.Troupe{}, err
	}
	var rep troupeReply
	if err := wire.Unmarshal(res, &rep); err != nil {
		return core.Troupe{}, err
	}
	t := core.Troupe{ID: core.TroupeID(rep.ID)}
	for _, w := range rep.Members {
		t.Members = append(t.Members, fromWire(w))
	}
	c.mu.Lock()
	c.byName[name] = t
	c.byID[t.ID] = t.Members
	c.mu.Unlock()
	return t, nil
}

// NewResilientCaller imports the troupe registered under name and
// wraps it in a self-healing caller whose Rebind hook reports stale
// bindings to this binding agent (§6.1) and installs the fresh
// binding transparently.
func (c *Client) NewResilientCaller(ctx context.Context, name string, opts core.ResilientOptions) (*core.ResilientCaller, error) {
	t, err := c.LookupByName(ctx, name)
	if err != nil {
		return nil, err
	}
	if opts.Rebind == nil {
		opts.Rebind = func(ctx context.Context, stale core.Troupe) (core.Troupe, error) {
			return c.Rebind(ctx, name, stale)
		}
	}
	return core.NewResilientCaller(c.rt, t, opts), nil
}

// PublishMap offers an epoch-versioned configuration blob for a
// service name. The binding agent accepts it only if epoch is exactly
// one past the stored epoch (compare-and-set), so concurrent
// publishers serialize: exactly one wins each epoch.
func (c *Client) PublishMap(ctx context.Context, service string, epoch uint64, data []byte) error {
	_, err := c.call(ctx, ProcPublishMap, publishMapArgs{Service: service, Epoch: epoch, Data: data})
	return err
}

// FetchMap returns the latest published configuration blob and its
// epoch for a service name.
func (c *Client) FetchMap(ctx context.Context, service string) (uint64, []byte, error) {
	res, err := c.call(ctx, ProcFetchMap, service)
	if err != nil {
		return 0, nil, err
	}
	var rep mapReply
	if err := wire.Unmarshal(res, &rep); err != nil {
		return 0, nil, err
	}
	return rep.Epoch, rep.Data, nil
}

// ListNames enumerates every registered troupe name.
func (c *Client) ListNames(ctx context.Context) ([]string, error) {
	res, err := c.call(ctx, ProcListNames, struct{}{})
	if err != nil {
		return nil, err
	}
	var names []string
	if err := wire.Unmarshal(res, &names); err != nil {
		return nil, err
	}
	return names, nil
}

func (c *Client) invalidateName(name string) {
	c.mu.Lock()
	if t, ok := c.byName[name]; ok {
		delete(c.byID, t.ID)
	}
	delete(c.byName, name)
	c.mu.Unlock()
}

// InvalidateAll drops the whole cache.
func (c *Client) InvalidateAll() {
	c.mu.Lock()
	c.byName = make(map[string]core.Troupe)
	c.byID = make(map[core.TroupeID][]core.ModuleAddr)
	c.mu.Unlock()
}

// GarbageCollect is the sweeper of §6.1: it enumerates registered
// troupes, probes every member with the null "are you there?"
// procedure, and removes members that do not respond within
// probeTimeout. It returns the number of members removed.
func (c *Client) GarbageCollect(ctx context.Context, probeTimeout time.Duration) (int, error) {
	names, err := c.ListNames(ctx)
	if err != nil {
		return 0, err
	}
	removed := 0
	for _, name := range names {
		t, err := c.lookupNameRemote(ctx, name)
		if err != nil {
			continue
		}
		for _, m := range t.Members {
			single := core.Troupe{Members: []core.ModuleAddr{m}}
			_, err := c.rt.Call(ctx, single, core.ProcPing, nil, core.CallOptions{Timeout: probeTimeout})
			if err == nil {
				continue
			}
			if _, err := c.RemoveMember(ctx, name, m); err == nil {
				removed++
				if tr := c.rt.Tracer(); tr.Enabled() {
					tr.Emit(trace.Event{Kind: trace.KindGCRemove,
						Peer: m.Addr, Module: m.Module, Detail: name})
				}
			}
		}
	}
	return removed, nil
}
