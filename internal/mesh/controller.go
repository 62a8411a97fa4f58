package mesh

import (
	"context"
	"fmt"

	"circus/internal/collate"
	"circus/internal/core"
	"circus/internal/ringmaster"
)

// StateCodec adapts a shard module's own dump/merge/delete procedures
// for the migration coordinator, which moves key ranges without
// understanding the module's record format. kv.Codec implements it
// over the key-value store's repair procedures.
type StateCodec interface {
	// Procs returns the module's dump (full state out), merge (state
	// subset in), and delete (batch of keys) procedure numbers.
	Procs() (dump, merge, del uint16)
	// Union folds several members' dumps into one; with exactly-once
	// replicated writes any single member's dump already holds every
	// acked record, so the union only papers over partly-failed reads.
	Union(dumps [][]byte) ([]byte, error)
	// Filter returns the subset of a dump whose keys satisfy keep,
	// and those keys.
	Filter(dump []byte, keep func(key string) bool) (subset []byte, keys []string, err error)
	// EncodeKeys externalizes a key batch for the delete procedure.
	EncodeKeys(keys []string) ([]byte, error)
}

// Controller performs live rebalancing: splitting a shard into the
// mesh or merging one out, while client traffic keeps flowing.
//
// Split and Merge run one procedure, which moves the mesh from the
// assignment from (the shards before) to the assignment to (the shards
// after) through a range that is parked rather than dual-logged. The
// subject is the shard that joins (a split) or leaves (a merge); with
// the map at epoch e:
//
//  1. park: publish e+1 = from∪to with the subject parked, and push it
//     to every shard troupe. From here no guard accepts a write to the
//     subject's range (its owners under either assignment refuse the
//     keys as parked), so the range is immutable.
//  2. copy: dump the donors — every shard of from for a split, the
//     subject alone for a merge — and merge each pair whose owner
//     under to is another shard into that owner's troupe. Consistent
//     hashing moves keys only onto a new shard or off a removed one,
//     so the parked range holds every pair that moves. Each merge is a
//     replicated call, so the copy is on every member (and fsynced,
//     for durable members) before it is acknowledged.
//  3. flip: publish e+2 = to, nothing parked, and push it to every
//     shard of from∪to. Writes to the range now flow to their new
//     owners, and the guard of a merged-away shard redirects
//     stragglers instead of serving stale data.
//  4. clean up: best effort, delete the moved keys from their donors
//     (tombstones ride the apply-order log, so shard-internal repair
//     propagates them).
//
// No acknowledged write is lost: every write acked before e+1 is in a
// donor's dump and therefore copied; during [e+1, e+2) the range
// accepts no writes (clients see parked and retry); after e+2 writes
// land on the new owners. If the copy fails (a shard died
// mid-migration), the controller rolls back by publishing from at a
// fresh epoch: the copies made so far are unreachable garbage, not
// lost data.
//
// If the controller itself dies (or its rollback publish fails) while
// the published map still parks the subject, the next Split or Merge
// of that subject resumes the migration in its own direction: re-push
// the park, redo the copy, and flip at the parked epoch + 1. So a
// Merge cancels a split that died after its park and a Split finishes
// it; neither reports a phantom success that would strand the range
// parked and empty. A resumed copy that fails leaves the park
// published instead of rolling back: the map does not say which way
// the stuck attempt was going, so it does not say whether from or to
// holds the range's data.
type Controller struct {
	rt      *core.Runtime
	binder  *ringmaster.Client
	service string
	codec   StateCodec
	// Resilient configures the callers used to reach shard troupes.
	Resilient core.ResilientOptions
	// Quorum, when set, is how many members of a shard troupe each
	// migration step must reach. A map push (ProcSetShardMap) counts as
	// installed only on that many identical answers, instead of the
	// default unanimity of survivors, which one live member satisfies.
	// A copy's dump needs at least that many members' states, besides
	// every bound member's. Set it to the shard degree minus the write
	// quorum plus one, so the members a step missed cannot form a write
	// quorum: a park that reached fewer would let stragglers ack a write
	// after their state was dumped, and a dump drawn from fewer (repair
	// may have shrunk the binding) might miss an acked record the
	// absentees hold. A refused dump fails, and rolls back, the
	// migration, which is the safe side.
	Quorum int
	// Log, when set, receives progress lines.
	Log func(format string, args ...any)
}

// NewController returns a rebalancing controller for service.
func NewController(rt *core.Runtime, binder *ringmaster.Client, service string, codec StateCodec) *Controller {
	return &Controller{rt: rt, binder: binder, service: service, codec: codec}
}

func (c *Controller) logf(format string, args ...any) {
	if c.Log != nil {
		c.Log(format, args...)
	}
}

// Bootstrap publishes the service's first shard map (epoch 1) over
// already-registered shard troupes and pushes it to their guards.
func (c *Controller) Bootstrap(ctx context.Context, shards []string, vnodes int) (*ShardMap, error) {
	m := &ShardMap{Service: c.service, Epoch: 1, Vnodes: vnodes, Shards: append([]string(nil), shards...)}
	if err := PublishMap(ctx, c.binder, m); err != nil {
		return nil, err
	}
	if err := c.push(ctx, m, m.Shards); err != nil {
		return nil, err
	}
	return m, nil
}

// push installs m at every member of the named shard troupes via the
// replicated ProcSetShardMap call.
func (c *Controller) push(ctx context.Context, m *ShardMap, shards []string) error {
	data, err := m.Encode()
	if err != nil {
		return err
	}
	var opts core.CallOptions
	if c.Quorum > 0 {
		opts.Collator = func(n int) collate.Collator { return collate.Quorum(n, c.Quorum) }
	}
	for _, name := range shards {
		rc, err := c.binder.NewResilientCaller(ctx, name, c.Resilient)
		if err != nil {
			return fmt.Errorf("mesh: pushing map to %q: %w", name, err)
		}
		if _, err := rc.Call(ctx, ProcSetShardMap, data, opts); err != nil {
			return fmt.Errorf("mesh: pushing map to %q: %w", name, err)
		}
	}
	return nil
}

// publishNext publishes m at one past the latest epoch the binder
// holds and pushes it to the named shards.
func (c *Controller) publishNext(ctx context.Context, m *ShardMap, pushTo []string) error {
	if err := PublishMap(ctx, c.binder, m); err != nil {
		return err
	}
	return c.push(ctx, m, pushTo)
}

// dumpShard unions the members' dumps of one shard troupe. Every
// bound member must answer: writes ack on the unsuspected (or quorum)
// subset of the troupe, so an acked record may live on any member,
// and a union missing one could miss it. Refusing the dump fails —
// and rolls back — the migration rather than risking the copy.
func (c *Controller) dumpShard(ctx context.Context, name string) ([]byte, error) {
	dumpProc, _, _ := c.codec.Procs()
	rc, err := c.binder.NewResilientCaller(ctx, name, c.Resilient)
	if err != nil {
		return nil, err
	}
	t := rc.Troupe()
	items := c.rt.CallEach(ctx, t, dumpProc, nil, core.CallOptions{})
	var dumps [][]byte
	for i := 0; i < t.Degree(); i++ {
		it, ok := <-items
		if !ok {
			break
		}
		if it.Err == nil {
			dumps = append(dumps, it.Data)
		}
	}
	if len(dumps) < t.Degree() || len(dumps) < c.Quorum {
		return nil, fmt.Errorf("mesh: migration dump of %q reached %d of %d members (floor %d): refusing a partial copy",
			name, len(dumps), t.Degree(), c.Quorum)
	}
	return c.codec.Union(dumps)
}

// Split grows the mesh by newShard, an already-registered troupe
// absent from the current map, carving its consistent-hash range out
// of every existing shard while traffic flows. A map that parks
// newShard is a stuck migration, which Split completes.
func (c *Controller) Split(ctx context.Context, newShard string) error {
	return c.migrate(ctx, newShard, true)
}

// Merge shrinks the mesh by victim: its range is parked, its pairs
// are copied to the shards that inherit them, and the map without it
// is published. The victim troupe itself is left registered; retiring
// it is the caller's decision. A map that parks victim is a stuck
// migration, which Merge cancels.
func (c *Controller) Merge(ctx context.Context, victim string) error {
	return c.migrate(ctx, victim, false)
}

// migrate moves the mesh from the published assignment to the one with
// subject added (grow) or removed, by the park, copy, flip and clean-up
// steps of the Controller comment, resuming a published park of
// subject in either direction.
func (c *Controller) migrate(ctx context.Context, subject string, grow bool) error {
	cur, err := FetchShardMap(ctx, c.binder, c.service)
	if err != nil {
		return err
	}
	verb := "merge"
	if grow {
		verb = "split"
	}
	others := make([]string, 0, len(cur.Shards))
	for _, s := range cur.Shards {
		if s != subject {
			others = append(others, s)
		}
	}
	present, resume := len(others) < len(cur.Shards), cur.IsParked(subject)
	switch {
	case grow && present && !resume:
		return fmt.Errorf("mesh: shard %q already in the map", subject)
	case !grow && !present:
		return fmt.Errorf("mesh: shard %q not in the map", subject)
	case !grow && len(others) == 0:
		return fmt.Errorf("mesh: refusing to merge away the last shard %q", subject)
	}
	wide := cur.Shards
	if !present {
		wide = append(others[:len(others):len(others)], subject)
	}
	from, to, donors := others, wide, others
	if !grow {
		from, to, donors = wide, others, []string{subject}
	}

	// Park the subject's range, or resume a park already published:
	// the range has been immutable since, but the stuck attempt may
	// have died before its push reached every member, and the park
	// only protects the copy once every guard holds it.
	parked := cur
	if resume {
		if err := c.push(ctx, parked, wide); err != nil {
			return err
		}
		c.logf("mesh: %s %s: resuming parked migration at epoch %d", verb, subject, parked.Epoch)
	} else {
		parked = &ShardMap{Service: c.service, Epoch: cur.Epoch + 1, Vnodes: cur.Vnodes,
			Shards: wide, Parked: []string{subject}}
		if err := c.publishNext(ctx, parked, wide); err != nil {
			return err
		}
		c.logf("mesh: %s %s: epoch %d published, %s parked", verb, subject, parked.Epoch, subject)
	}
	next := func(shards []string) *ShardMap {
		return &ShardMap{Service: c.service, Epoch: parked.Epoch + 1, Vnodes: cur.Vnodes, Shards: shards}
	}

	// Copy the pairs that change owner. A failure rolls the map back
	// (the range never unparked, so nothing acked can be lost), except
	// on a resume, where only a completed copy makes either assignment
	// safe to publish.
	moved, err := c.copyMoved(ctx, donors, to, cur.Vnodes)
	if err != nil && resume {
		return fmt.Errorf("mesh: %s %q left parked at epoch %d: %w", verb, subject, parked.Epoch, err)
	}
	if err != nil {
		if rerr := c.publishNext(ctx, next(from), wide); rerr != nil {
			return fmt.Errorf("mesh: %s %q failed (%v) and rollback failed: %w", verb, subject, err, rerr)
		}
		c.logf("mesh: %s %s: rolled back at epoch %d", verb, subject, parked.Epoch+1)
		return fmt.Errorf("mesh: %s %q rolled back: %w", verb, subject, err)
	}

	// Flip: the epoch that hands the range to its new owners.
	if err := c.publishNext(ctx, next(to), wide); err != nil {
		return err
	}
	c.logf("mesh: %s %s: epoch %d live on %d shards", verb, subject, parked.Epoch+1, len(to))

	// Drop the moved keys from their donors. Best effort: a leftover
	// copy is unreachable behind the wrong-shard check and costs only
	// space.
	_, _, delProc := c.codec.Procs()
	for donor, keys := range moved {
		args, err := c.codec.EncodeKeys(keys)
		if err != nil {
			return err
		}
		rc, err := c.binder.NewResilientCaller(ctx, donor, c.Resilient)
		if err != nil {
			continue
		}
		if _, err := rc.Call(ctx, delProc, args, core.CallOptions{}); err != nil {
			c.logf("mesh: %s %s: cleanup at %s failed (stale copies remain): %v", verb, subject, donor, err)
		}
	}
	return nil
}

// copyMoved dumps each donor and merges every pair that the ring of
// to assigns to another shard into that shard's troupe. It returns the
// keys moved off each donor.
func (c *Controller) copyMoved(ctx context.Context, donors, to []string, vnodes int) (map[string][]string, error) {
	ring := NewRing(to, vnodes)
	_, mergeProc, _ := c.codec.Procs()
	moved := make(map[string][]string)
	for _, donor := range donors {
		dump, err := c.dumpShard(ctx, donor)
		if err != nil {
			return nil, err
		}
		for _, heir := range to {
			if heir == donor {
				continue
			}
			subset, keys, err := c.codec.Filter(dump, func(k string) bool { return ring.Owner(k) == heir })
			if err != nil {
				return nil, err
			}
			if len(keys) == 0 {
				continue
			}
			rc, err := c.binder.NewResilientCaller(ctx, heir, c.Resilient)
			if err != nil {
				return nil, err
			}
			if _, err := rc.Call(ctx, mergeProc, subset, core.CallOptions{}); err != nil {
				return nil, fmt.Errorf("mesh: copying %d keys from %q to %q: %w", len(keys), donor, heir, err)
			}
			moved[donor] = append(moved[donor], keys...)
			c.logf("mesh: copied %d keys from %s to %s", len(keys), donor, heir)
		}
	}
	return moved, nil
}
