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
// The protocol parks the moving range rather than dual-logging it.
// For a split of new shard B at epoch e:
//
//  1. publish e+1 = shards∪{B}, B parked, and push it to every shard
//     troupe. From here no guard accepts a write to B's range (its
//     old owners refuse the keys as parked; B refuses likewise), so
//     the range is immutable.
//  2. copy: dump each old shard, keep the pairs B now owns, merge
//     them into B's troupe — a replicated call, so the copy is on
//     every member of B (and fsynced, for durable members) before it
//     is acknowledged.
//  3. publish e+2 = shards∪{B}, nothing parked; push. Writes to the
//     range now flow to B.
//  4. delete the moved keys from their old shards (tombstones ride
//     the apply-order log, so shard-internal repair propagates them).
//
// No acknowledged write is lost: every write acked before e+1 is in
// some old shard's dump and therefore copied; during [e+1, e+2) the
// range accepts no writes (clients see parked and retry); after e+2
// writes land on B. If the copy fails (a shard died mid-migration),
// the controller rolls back by publishing the original assignment at
// a fresh epoch — the moved-so-far copies on B are unreachable
// garbage, not lost data. If the controller itself dies (or its
// rollback publish fails) while the published map still parks B, a
// later Split of B finds the parked entry and resumes: re-push the
// park, redo the copy, flip — never a phantom "already in the map"
// success that would strand the range parked and empty.
//
// A merge of shard B is the mirror image: park B's range, copy B's
// pairs to the shards that inherit them (consistent hashing moves
// keys only off the removed shard), publish the map without B.
//
// Consistent hashing guarantees the only ranges that change owners
// are those moving to (split) or off (merge) the subject shard, so
// parking the subject's range alone suffices.
type Controller struct {
	rt      *core.Runtime
	binder  *ringmaster.Client
	service string
	codec   StateCodec
	// Resilient configures the callers used to reach shard troupes.
	Resilient core.ResilientOptions
	// MinCopyDonors, when set, additionally requires at least that
	// many members' dumps before a range copy proceeds. Set it to a
	// majority of the shard's full degree when writes are acked by
	// quorum (or by unanimity-of-unsuspected): the binding may have
	// been shrunken by repair, and a dump drawn from too few members
	// might miss an acked record the absentees hold. A refused dump
	// fails — and rolls back — the migration, which is the safe side.
	MinCopyDonors int
	// PushQuorum, when set, requires that many identical answers
	// before a map push (ProcSetShardMap) is considered installed,
	// instead of the default unanimity-of-survivors, which is
	// satisfied by a single live member. Set it so that fewer than a
	// write quorum of members can remain un-parked (degree minus
	// write quorum plus one): otherwise a park "completes" having
	// reached too few members, and stragglers that never saw it can
	// still form a write quorum after their state was dumped — an
	// acked write the copy misses.
	PushQuorum int
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
	if c.PushQuorum > 0 {
		opts.Collator = func(n int) collate.Collator { return collate.Quorum(n, c.PushQuorum) }
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
	if len(dumps) < t.Degree() || len(dumps) < c.MinCopyDonors {
		return nil, fmt.Errorf("mesh: migration dump of %q reached %d of %d members (floor %d): refusing a partial copy",
			name, len(dumps), t.Degree(), c.MinCopyDonors)
	}
	return c.codec.Union(dumps)
}

// Split grows the mesh by newShard, an already-registered troupe
// absent from the current map, carving its consistent-hash range out
// of every existing shard while traffic flows.
func (c *Controller) Split(ctx context.Context, newShard string) error {
	cur, err := FetchShardMap(ctx, c.binder, c.service)
	if err != nil {
		return err
	}
	// base is the assignment without newShard — the donors of the copy
	// and the rollback target. newShard may already appear in the
	// published map if a previous attempt parked the range and then
	// failed before the flip (a push that never reached a partitioned
	// shard, or a rollback whose own publish failed): that migration is
	// stuck, not done, and must be resumed — reporting "already in the
	// map" would strand the range parked forever, refusing its writes
	// and owning none of its acked data.
	base := make([]string, 0, len(cur.Shards))
	present := false
	for _, s := range cur.Shards {
		if s == newShard {
			present = true
			continue
		}
		base = append(base, s)
	}
	parkedAlready := false
	for _, p := range cur.Parked {
		if p == newShard {
			parkedAlready = true
		}
	}
	if present && !parkedAlready {
		return fmt.Errorf("mesh: shard %q already in the map", newShard)
	}

	// Step 1: park the moving range (or resume a park already
	// published — the range has been immutable since, so skipping
	// straight to the copy is safe).
	var grown *ShardMap
	if present {
		grown = cur
		// The stuck attempt may have died before its park push reached
		// every member; the park only protects the copy once every
		// guard holds it, so re-push before touching any state.
		if err := c.push(ctx, grown, grown.Shards); err != nil {
			return err
		}
		c.logf("mesh: split %s: resuming parked migration at epoch %d", newShard, cur.Epoch)
	} else {
		grown = &ShardMap{Service: c.service, Epoch: cur.Epoch + 1, Vnodes: cur.Vnodes,
			Shards: append(append([]string(nil), base...), newShard),
			Parked: []string{newShard}}
		if err := c.publishNext(ctx, grown, grown.Shards); err != nil {
			return err
		}
		c.logf("mesh: split %s: epoch %d published, %s parked", newShard, grown.Epoch, newShard)
	}

	// Step 2: copy the range. A failure here rolls the map back — the
	// range never unparked, so nothing acked can be lost.
	ring := grown.Ring()
	moved := make(map[string][]string) // source shard -> keys moved off it
	_, mergeProc, delProc := c.codec.Procs()
	copyRange := func() error {
		for _, src := range base {
			dump, err := c.dumpShard(ctx, src)
			if err != nil {
				return err
			}
			subset, keys, err := c.codec.Filter(dump, func(k string) bool { return ring.Owner(k) == newShard })
			if err != nil {
				return err
			}
			if len(keys) == 0 {
				continue
			}
			rc, err := c.binder.NewResilientCaller(ctx, newShard, c.Resilient)
			if err != nil {
				return err
			}
			if _, err := rc.Call(ctx, mergeProc, subset, core.CallOptions{}); err != nil {
				return fmt.Errorf("mesh: copying %d keys from %q to %q: %w", len(keys), src, newShard, err)
			}
			moved[src] = keys
			c.logf("mesh: split %s: copied %d keys from %s", newShard, len(keys), src)
		}
		return nil
	}
	if err := copyRange(); err != nil {
		rollback := &ShardMap{Service: c.service, Epoch: grown.Epoch + 1, Vnodes: cur.Vnodes,
			Shards: append([]string(nil), base...)}
		if rerr := c.publishNext(ctx, rollback, grown.Shards); rerr != nil {
			return fmt.Errorf("mesh: split %q failed (%v) and rollback failed: %w", newShard, err, rerr)
		}
		c.logf("mesh: split %s: rolled back to original assignment at epoch %d", newShard, rollback.Epoch)
		return fmt.Errorf("mesh: split %q rolled back: %w", newShard, err)
	}

	// Step 3: unpark — the epoch flip that makes B the range's owner.
	flipped := &ShardMap{Service: c.service, Epoch: grown.Epoch + 1, Vnodes: cur.Vnodes,
		Shards: append([]string(nil), grown.Shards...)}
	if err := c.publishNext(ctx, flipped, flipped.Shards); err != nil {
		return err
	}
	c.logf("mesh: split %s: epoch %d live", newShard, flipped.Epoch)

	// Step 4: drop the moved keys from their old owners. Best effort —
	// a leftover copy is unreachable behind the wrong-shard check and
	// costs only space.
	for src, keys := range moved {
		args, err := c.codec.EncodeKeys(keys)
		if err != nil {
			return err
		}
		rc, err := c.binder.NewResilientCaller(ctx, src, c.Resilient)
		if err != nil {
			continue
		}
		if _, err := rc.Call(ctx, delProc, args, core.CallOptions{}); err != nil {
			c.logf("mesh: split %s: cleanup at %s failed (stale copies remain): %v", newShard, src, err)
		}
	}
	return nil
}

// Merge shrinks the mesh by victim: its range is parked, its pairs
// are copied to the shards that inherit them, and the map without it
// is published. The victim troupe itself is left registered; retiring
// it is the caller's decision.
func (c *Controller) Merge(ctx context.Context, victim string) error {
	cur, err := FetchShardMap(ctx, c.binder, c.service)
	if err != nil {
		return err
	}
	rest := make([]string, 0, len(cur.Shards))
	for _, s := range cur.Shards {
		if s != victim {
			rest = append(rest, s)
		}
	}
	if len(rest) == len(cur.Shards) {
		return fmt.Errorf("mesh: shard %q not in the map", victim)
	}
	if len(rest) == 0 {
		return fmt.Errorf("mesh: refusing to merge away the last shard %q", victim)
	}

	// Step 1: park the victim's range.
	parked := &ShardMap{Service: c.service, Epoch: cur.Epoch + 1, Vnodes: cur.Vnodes,
		Shards: append([]string(nil), cur.Shards...), Parked: []string{victim}}
	if err := c.publishNext(ctx, parked, parked.Shards); err != nil {
		return err
	}
	c.logf("mesh: merge %s: epoch %d published, %s parked", victim, parked.Epoch, victim)

	// Step 2: copy the victim's pairs to their inheritors under the
	// shrunken ring.
	restRing := NewRing(rest, cur.Vnodes)
	_, mergeProc, _ := c.codec.Procs()
	copyOut := func() error {
		dump, err := c.dumpShard(ctx, victim)
		if err != nil {
			return err
		}
		for _, heir := range rest {
			subset, keys, err := c.codec.Filter(dump, func(k string) bool { return restRing.Owner(k) == heir })
			if err != nil {
				return err
			}
			if len(keys) == 0 {
				continue
			}
			rc, err := c.binder.NewResilientCaller(ctx, heir, c.Resilient)
			if err != nil {
				return err
			}
			if _, err := rc.Call(ctx, mergeProc, subset, core.CallOptions{}); err != nil {
				return fmt.Errorf("mesh: moving %d keys from %q to %q: %w", len(keys), victim, heir, err)
			}
			c.logf("mesh: merge %s: moved %d keys to %s", victim, len(keys), heir)
		}
		return nil
	}
	if err := copyOut(); err != nil {
		rollback := &ShardMap{Service: c.service, Epoch: parked.Epoch + 1, Vnodes: cur.Vnodes,
			Shards: append([]string(nil), cur.Shards...)}
		if rerr := c.publishNext(ctx, rollback, rollback.Shards); rerr != nil {
			return fmt.Errorf("mesh: merge %q failed (%v) and rollback failed: %w", victim, err, rerr)
		}
		c.logf("mesh: merge %s: rolled back at epoch %d", victim, rollback.Epoch)
		return fmt.Errorf("mesh: merge %q rolled back: %w", victim, err)
	}

	// Step 3: publish the map without the victim. The victim's guard
	// gets the push too, so straggler clients are redirected rather
	// than served stale data.
	shrunk := &ShardMap{Service: c.service, Epoch: parked.Epoch + 1, Vnodes: cur.Vnodes, Shards: rest}
	if err := c.publishNext(ctx, shrunk, cur.Shards); err != nil {
		return err
	}
	c.logf("mesh: merge %s: epoch %d live on %d shards", victim, shrunk.Epoch, len(rest))
	return nil
}
