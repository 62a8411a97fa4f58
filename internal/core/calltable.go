package core

import (
	"encoding/binary"
	"math/bits"

	"circus/internal/thread"
	"circus/internal/tomb"
)

// The call table is a server member's many-to-one collation state
// (§4.3.2) and its buffered return messages (§4.3.4) in one structure,
// guarded by Runtime.callMu. A call identity — thread ID, call path,
// module — names one slot of a block of 64 consecutive identities, so
// every incoming call message costs one map probe into a table 64
// times smaller than one holding a record per call, and neither a live
// call nor a finished one costs a heap record of its own.
//
// Consecutive identities come in two shapes, and each shares blocks:
//   - a call that is the first of its frame at every level (path [1],
//     [1 1], …) is usually the first call of a fresh thread, and one
//     runtime hands out consecutive thread Procs, so such calls vary in
//     the Proc's low six bits;
//   - any other call varies in the last path component's low six bits,
//     as the calls of one frame do (nested calls, transaction
//     operations).
//
// Either way the key is exact: the block key plus the slot number give
// back the identity, so two calls are never answered with each
// other's results.
//
// Blocks live in tomb.Generations generations, as package tomb's
// records do: a finished call is stored in the newest generation and
// dropped with it on the third rotation after, between 1 and 1.5
// retention windows later, and expiry never walks the records. A block of the newest generation also carries a
// summary of the slots its key holds in older generations, so a fresh
// call's miss costs that one probe; only a block's first call, or a
// duplicate of an older call, probes the older generations.

// keyPath is how many path components a blockKey holds inline; a
// deeper call path is keyed by its rendered bytes instead.
const keyPath = 5

// blockKey names a block: the call identity with the slot number's six
// bits cleared from the Proc (byProc) or from the last path component.
// It is pointer-free, so the maps holding it are not scanned.
type blockKey struct {
	host, proc uint32
	module     uint16
	byProc     bool
	n          uint8 // path length
	path       [keyPath]uint32
}

// callKey locates one call identity: its block and its slot. deep holds
// the rendered block key of a path longer than keyPath.
type callKey struct {
	k    blockKey
	deep []byte
	slot uint
}

// keyOf computes the key of a call identity. buf backs a deep key.
func keyOf(tid thread.ID, path []uint32, module uint16, buf []byte) (c callKey) {
	c.k = blockKey{host: tid.Host, proc: tid.Proc, module: module, byProc: true}
	for _, p := range path {
		if p != 1 {
			c.k.byProc = false
			break
		}
	}
	if c.k.byProc {
		c.slot = uint(tid.Proc & 63)
		c.k.proc &^= 63
	} else {
		c.slot = uint(path[len(path)-1] & 63)
	}
	if len(path) <= keyPath {
		c.k.n = uint8(len(path))
		copy(c.k.path[:], path)
		if !c.k.byProc {
			c.k.path[len(path)-1] &^= 63
		}
		return c
	}
	b := append(buf[:0], 0)
	if c.k.byProc {
		b[0] = 1
	}
	b = binary.BigEndian.AppendUint32(b, c.k.host)
	b = binary.BigEndian.AppendUint32(b, c.k.proc)
	b = binary.BigEndian.AppendUint16(b, module)
	for _, p := range path[:len(path)-1] {
		b = binary.BigEndian.AppendUint32(b, p)
	}
	c.deep = binary.BigEndian.AppendUint32(b, path[len(path)-1]&^63)
	return c
}

// A block holds 64 call identities. A set bit of live marks a call
// collating or executing, its slot the call's index in callTable.calls;
// a set bit of done marks a call finished in the block's generation,
// its slot where the encoded return message is (generation.result). A
// block is pointer-free, so the collector does not scan it.
type block struct {
	epoch uint32 // the table's epoch when the block was made: its generation
	live  uint64
	done  uint64
	// older is a superset of the slots live or done in the blocks of
	// the same key in older generations, taken when the block was made;
	// those generations gain no bits afterwards.
	older uint64
	slot  [64]uint32
}

// chunkSize is the largest results chunk. Chunks are filled, never
// grown, so storing a result never copies earlier ones; a generation's
// first chunk holds slabMax bytes and each next one twice its
// predecessor, up to chunkSize, so a quiet member allocates little.
const chunkSize = 32 << 10

// slabMax is the largest return message copied into a chunk; a larger
// one is kept as the slice it is, and its slot says so with largeRef.
const (
	slabMax  = 1024
	largeRef = 1 << 31
)

// A generation is what the call table remembers of one rotation
// period: its blocks and the return messages of the calls finished in
// it. Rotation drops a generation whole; nothing in it is reused, so a
// return message handed out stays valid.
type generation struct {
	blocks map[blockKey]*block
	deep   map[string]*block
	chunks [][]byte
	large  [][]byte
}

// block returns the generation's block for c, or nil.
func (g *generation) block(c *callKey) *block {
	if c.deep != nil {
		return g.deep[string(c.deep)]
	}
	return g.blocks[c.k]
}

// store encodes ret into the generation and returns its reference and
// bytes.
func (g *generation) store(ret *returnHeader) (uint32, []byte) {
	n := 6 + len(ret.Payload) + len(ret.Payload)&1
	var last []byte
	if len(g.chunks) > 0 {
		last = g.chunks[len(g.chunks)-1]
	}
	full := cap(last)-len(last) < n
	if n > slabMax || full && len(g.chunks) == largeRef/chunkSize {
		b := ret.marshal()
		g.large = append(g.large, b)
		return largeRef | uint32(len(g.large)-1), b
	}
	if full {
		last = make([]byte, 0, max(min(2*cap(last), chunkSize), slabMax))
		g.chunks = append(g.chunks, last)
	}
	i, off := len(g.chunks)-1, len(last)
	last = ret.appendTo(last)
	g.chunks[i] = last
	return uint32(i*chunkSize + off), last[off:len(last):len(last)]
}

// result returns the return message stored under ref; the message
// says its own length.
func (g *generation) result(ref uint32) []byte {
	if ref&largeRef != 0 {
		return g.large[ref&^largeRef]
	}
	c, off := g.chunks[ref/chunkSize], int(ref%chunkSize)
	n := int(binary.BigEndian.Uint32(c[off+2:]))
	end := off + 6 + n + n&1
	return c[off:end:end]
}

// callTable is the call table; see the top of this file.
type callTable struct {
	epoch uint32                       // rotations so far
	gens  [tomb.Generations]generation // gens[0] is the newest
	calls []*serverCall                // call records by index, reused once released
	idle  []uint32                     // indices in calls whose record is released
	live  int                          // calls in the table
}

// find looks a call up. It returns the live record, or the encoded
// return message of a finished call, or neither for a fresh call,
// together with the newest generation's block of its key, if any.
func (t *callTable) find(c *callKey) (sc *serverCall, ret []byte, b0 *block) {
	m := uint64(1) << c.slot
	for age := range t.gens {
		b := t.gens[age].block(c)
		if age == 0 {
			if b0 = b; b != nil && (b.live|b.done|b.older)&m == 0 {
				return nil, nil, b0 // fresh: the one probe
			}
		}
		switch {
		case b == nil:
		case b.live&m != 0:
			return t.calls[b.slot[c.slot]], nil, b0
		case b.done&m != 0:
			return nil, t.gens[age].result(b.slot[c.slot]), b0
		}
	}
	return nil, nil, b0
}

// newestBlock returns the newest generation's block for c, making it
// if need be; b0 is find's answer when the caller has one.
func (t *callTable) newestBlock(c *callKey, b0 *block) *block {
	if b0 != nil {
		return b0
	}
	if b0 = t.gens[0].block(c); b0 != nil {
		return b0
	}
	b0 = &block{epoch: t.epoch}
	for age := 1; age < len(t.gens); age++ {
		if b := t.gens[age].block(c); b != nil {
			b0.older |= b.live | b.done
		}
	}
	g := &t.gens[0]
	if c.deep != nil {
		if g.deep == nil {
			g.deep = make(map[string]*block)
		}
		g.deep[string(c.deep)] = b0
	} else {
		if g.blocks == nil {
			g.blocks = make(map[blockKey]*block)
		}
		g.blocks[c.k] = b0
	}
	return b0
}

// add enters a fresh call and returns its record, which holds two
// references: the table's and the caller's.
func (t *callTable) add(c *callKey, b0 *block) *serverCall {
	var sc *serverCall
	if n := len(t.idle); n > 0 {
		sc = t.calls[t.idle[n-1]]
		t.idle = t.idle[:n-1]
	} else {
		sc = &serverCall{idx: uint32(len(t.calls))}
		t.calls = append(t.calls, sc)
	}
	sc.refs.Store(2)
	t.place(sc, c, b0)
	t.live++
	return sc
}

// place marks sc live in the newest generation's block for c.
func (t *callTable) place(sc *serverCall, c *callKey, b0 *block) {
	b := t.newestBlock(c, b0)
	b.live |= 1 << c.slot
	b.slot[c.slot] = sc.idx
	sc.blk, sc.slot = b, c.slot
}

// holds reports whether sc is still one of the table's records:
// PlantedRebindBug may have discarded it.
func (t *callTable) holds(sc *serverCall) bool {
	return int(sc.idx) < len(t.calls) && t.calls[sc.idx] == sc
}

// bury swaps live call sc for its return message, stored in the newest
// generation, and returns the encoded message; the caller then drops
// the table's reference. A call the table no longer holds is only
// encoded.
func (t *callTable) bury(sc *serverCall, ret *returnHeader) []byte {
	if !t.holds(sc) {
		return ret.marshal()
	}
	m := uint64(1) << sc.slot
	b := sc.blk
	b.live &^= m
	sc.blk = nil
	t.live--
	if b.epoch != t.epoch {
		var kb [64]byte
		c := keyOf(sc.tid, sc.hdr.Path, sc.hdr.Module, kb[:0])
		b = t.newestBlock(&c, nil)
	}
	ref, encoded := t.gens[0].store(ret)
	b.done |= m
	b.slot[sc.slot] = ref
	return encoded
}

// argBufMax is the largest argument buffer a record keeps for its next
// call; a larger one, left by a state transfer, say, is let go, so
// what idle records hold stays within this times the most calls ever
// in progress at once.
const argBufMax = 8 << 10

// recycle takes back a record whose last reference was dropped, for
// reuse, unless the table discarded it. The record lets go of the
// return message, whose generation may expire before the record's
// next use.
func (t *callTable) recycle(sc *serverCall) {
	if t.holds(sc) {
		sc.result = nil
		if cap(sc.argBuf) > argBufMax {
			sc.argBuf = nil
		}
		t.idle = append(t.idle, sc.idx)
	}
}

// rotate expires the oldest generation, however large, in one step.
// Live calls homed there — calls running longer than a retention
// window — move to the newest generation; there are at most as many
// as calls in progress.
func (t *callTable) rotate() {
	copy(t.gens[1:], t.gens[:])
	t.gens[0] = generation{}
	t.epoch++
	expired := t.epoch - uint32(len(t.gens))
	for _, sc := range t.calls {
		if sc.blk != nil && sc.blk.epoch == expired {
			var kb [64]byte
			c := keyOf(sc.tid, sc.hdr.Path, sc.hdr.Module, kb[:0])
			t.place(sc, &c, nil)
		}
	}
}

// tombstones counts the finished calls held: the popcount of every
// block's done mask.
func (t *callTable) tombstones() int {
	n := 0
	for i := range t.gens {
		for _, b := range t.gens[i].blocks {
			n += bits.OnesCount64(b.done)
		}
		for _, b := range t.gens[i].deep {
			n += bits.OnesCount64(b.done)
		}
	}
	return n
}
