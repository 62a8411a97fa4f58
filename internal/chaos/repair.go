package chaos

import (
	"context"
	"encoding/binary"
	"time"

	"circus"
	"circus/internal/kv"
	"circus/internal/trace"
)

// rejoinSlack is how far before the rejoiner's reported position the
// delta transfer starts. Positions are per-member apply orders, so two
// members' logs can interleave differently; re-fetching a small window
// absorbs the reordering, and merging is idempotent so overlap is
// free. Divergence beyond the slack is caught by the reconcile pass.
const rejoinSlack = 64

// repairman is the recovery manager of the campaign, playing the
// configuration-manager role of §7.5.3: it garbage-collects
// unresponsive members out of the binding (§6.1), re-admits recovered
// ones, and reinitializes them from their peers' state (§6.4.1).
//
// The rejoin order matters: the member is re-added to the binding
// FIRST — bumping the troupe ID, so clients rebind and subsequent
// writes include the member — and its state is reconciled afterwards.
// The reverse order (state transfer, then re-add) would lose every
// write acknowledged between the transfer and the re-add. Merge-based
// reconciliation makes the order safe: the campaign workload's keys
// are unique and its values immutable, so merging is exact.
//
// Re-initialization is incremental when it can be: the rejoiner
// reports its state position (what it recovered from its own log, or
// kept in memory), and the repairman transfers a live peer's
// apply-order suffix from just before that position instead of the
// full state — O(delta) bytes for a briefly-dead member.
type repairman struct {
	node  *circus.Node
	name  string
	addrs []circus.ModuleAddr
	log   func(format string, args ...any)

	removed  int
	rejoined int

	// Transfer accounting, for the O(delta) assertion: bytes moved to
	// rejoining members by suffix transfers vs full-state fallbacks.
	deltaTransfers int
	deltaBytes     int64
	fullTransfers  int
	fullBytes      int64
}

// sweep runs one repair pass and reports whether the system is whole:
// every known member bound and a state reconciliation completed. When
// force is set the reconciliation always runs in full; otherwise
// members whose positions agree are presumed converged and the
// expensive union pass is skipped.
func (r *repairman) sweep(ctx context.Context, force bool) bool {
	sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()

	// Drop members that do not answer the null procedure (§6.1). A
	// merely partitioned member is indistinguishable from a crashed
	// one and is removed too; it rejoins after the heal.
	if n, err := r.node.GarbageCollect(sctx, 150*time.Millisecond); err == nil && n > 0 {
		r.removed += n
		r.log("repair: removed %d unresponsive member(s)", n)
	}

	// A failed lookup means the binding emptied out entirely (every
	// member was garbage-collected); AddMember still works on an empty
	// troupe, so proceed with nothing marked present and re-admit.
	present := make(map[circus.ModuleAddr]bool, len(r.addrs))
	if t, err := r.node.Binder().LookupByName(sctx, r.name); err == nil {
		for _, m := range t.Members {
			present[m] = true
		}
	}
	var live []circus.ModuleAddr // bound before this sweep: delta donors
	for _, addr := range r.addrs {
		if present[addr] {
			live = append(live, addr)
		}
	}

	whole := true
	for _, addr := range r.addrs {
		if present[addr] {
			continue
		}
		whole = false
		// Direct ping, bypassing the binding: is the member back?
		direct := r.node.StubFor(circus.Troupe{Members: []circus.ModuleAddr{addr}})
		if err := direct.Ping(sctx, circus.WithTimeout(150*time.Millisecond)); err != nil {
			continue // still unreachable; try again next sweep
		}
		// The rejoin handshake: ask the member how much state it
		// already has before re-admitting it.
		pos := -1
		if b, err := direct.Call(sctx, kv.ProcPosition, nil,
			circus.WithTimeout(150*time.Millisecond)); err == nil && len(b) == 8 {
			pos = int(binary.BigEndian.Uint64(b))
		}
		if _, err := r.node.Binder().AddMember(sctx, r.name, addr); err != nil {
			continue
		}
		r.rejoined++
		r.transfer(sctx, addr, pos, live)
	}
	if !r.reconcile(sctx, force) {
		whole = false
	}
	return whole
}

// transfer re-initializes a just-re-admitted member from a live peer:
// the apply-order suffix from just before the member's reported
// position when the handshake produced one, the full state otherwise.
func (r *repairman) transfer(ctx context.Context, addr circus.ModuleAddr, pos int, live []circus.ModuleAddr) {
	delta := pos >= 0 && len(live) > 0
	var dump []byte
	if delta {
		from := pos - rejoinSlack
		if from < 0 {
			from = 0
		}
		var args [8]byte
		binary.BigEndian.PutUint64(args[:], uint64(from))
		donor := r.node.StubFor(circus.Troupe{Members: []circus.ModuleAddr{live[0]}})
		b, err := donor.Call(ctx, kv.ProcDumpSince, args[:], circus.WithTimeout(300*time.Millisecond))
		if err != nil {
			delta = false
		} else {
			dump = b
		}
	}
	if !delta {
		// No position, no live donor, or the donor call failed: full
		// state from the whole troupe (the rejoiner included — §6.4.1's
		// unanimous get_state doubles as a consistency check, but here
		// members may legitimately lag, so ask the first live one, or
		// fall back to the rejoiner's own dump being merged as a no-op).
		src := addr
		if len(live) > 0 {
			src = live[0]
		}
		donor := r.node.StubFor(circus.Troupe{Members: []circus.ModuleAddr{src}})
		b, err := donor.Call(ctx, kv.ProcDump, nil, circus.WithTimeout(300*time.Millisecond))
		if err != nil {
			return // reconcile will finish the job
		}
		dump = b
	}
	direct := r.node.StubFor(circus.Troupe{Members: []circus.ModuleAddr{addr}})
	if _, err := direct.Call(ctx, kv.ProcMerge, dump, circus.WithTimeout(300*time.Millisecond)); err != nil {
		return
	}
	if delta {
		r.deltaTransfers++
		r.deltaBytes += int64(len(dump))
		r.log("repair: rejoined %v via delta (%d bytes from position %d)", addr, len(dump), pos)
	} else {
		r.fullTransfers++
		r.fullBytes += int64(len(dump))
		r.log("repair: rejoined %v via full transfer (%d bytes)", addr, len(dump))
	}
	if tr := r.node.Runtime().Tracer(); tr.Enabled() {
		detail := "full"
		if delta {
			detail = "delta"
		}
		tr.Emit(trace.Event{Kind: trace.KindDeltaRejoin, N: len(dump), Detail: detail})
	}
}

// reconcile fetches every bound member's state, forms the union, and
// merges it back into every member. It reports whether every member
// participated; a partial reconciliation is retried by a later sweep.
// Unless force is set, a position gossip round runs first: when every
// member reports the same position the states are presumed converged
// and the O(state) union pass is skipped.
func (r *repairman) reconcile(ctx context.Context, force bool) bool {
	t, err := r.node.Binder().LookupByName(ctx, r.name)
	if err != nil || len(t.Members) < 2 {
		return err == nil
	}
	if !force && r.positionsAgree(ctx, t.Members) {
		return true
	}
	var dumps [][]byte
	complete := true
	for _, m := range t.Members {
		direct := r.node.StubFor(circus.Troupe{Members: []circus.ModuleAddr{m}})
		data, err := direct.Call(ctx, kv.ProcDump, nil, circus.WithTimeout(300*time.Millisecond))
		if err != nil {
			complete = false
			continue
		}
		dumps = append(dumps, data)
	}
	// Values are write-once per key, so the union is order-free; a
	// member holding a different value records the conflict on merge.
	args, err := kv.Codec{}.Union(dumps)
	if err != nil {
		return false
	}
	for _, m := range t.Members {
		direct := r.node.StubFor(circus.Troupe{Members: []circus.ModuleAddr{m}})
		if _, err := direct.Call(ctx, kv.ProcMerge, args, circus.WithTimeout(300*time.Millisecond)); err != nil {
			complete = false
		}
	}
	return complete
}

// positionsAgree polls every member's position and reports whether
// they all answered with the same value. Equal positions do not prove
// equal states (apply orders differ across members), but disagreement
// reliably accompanies divergence, so this is a cheap gossip filter in
// front of the O(state) union — never a substitute for the forced
// final reconciliation.
func (r *repairman) positionsAgree(ctx context.Context, members []circus.ModuleAddr) bool {
	first := int64(-1)
	for _, m := range members {
		direct := r.node.StubFor(circus.Troupe{Members: []circus.ModuleAddr{m}})
		b, err := direct.Call(ctx, kv.ProcPosition, nil, circus.WithTimeout(150*time.Millisecond))
		if err != nil || len(b) != 8 {
			return false
		}
		pos := int64(binary.BigEndian.Uint64(b))
		if first == -1 {
			first = pos
		} else if pos != first {
			return false
		}
	}
	return first >= 0
}
