package kv

import "circus/internal/wire"

// This file adapts the store to the mesh layer: the routing-key
// extractor for the guard's ownership check and the state codec the
// migration controller moves key ranges with. Both are structural
// (mesh.KeyFunc and mesh.StateCodec), so the store stays ignorant of
// the mesh and vice versa.

// Keys extracts the routing key from a call. Only the keyed data path
// (put, get) is guarded; dumps, merges, positions, and deletes are
// repair and migration traffic that addresses a shard on purpose.
func Keys(proc uint16, args []byte) (string, bool) {
	switch proc {
	case ProcPut:
		var p Pair
		if wire.Unmarshal(args, &p) != nil {
			return "", false
		}
		return p.Key, true
	case ProcGet:
		return string(args), true
	}
	return "", false
}

// Codec implements mesh.StateCodec over the store's repair procedures.
type Codec struct{}

// Procs returns the dump/merge/delete procedure numbers.
func (Codec) Procs() (dump, merge, del uint16) { return ProcDump, ProcMerge, ProcDel }

// Union folds several members' dumps into one sorted dump. Values are
// immutable per key, so union order cannot matter.
func (Codec) Union(dumps [][]byte) ([]byte, error) {
	u := make(map[string]string)
	for _, d := range dumps {
		pairs, err := DecodePairs(d)
		if err != nil {
			return nil, err
		}
		for _, p := range pairs {
			if !p.Del {
				u[p.Key] = p.Val
			}
		}
	}
	out := make([]Pair, 0, len(u))
	for k, v := range u {
		out = append(out, Pair{Key: k, Val: v})
	}
	sortPairs(out)
	return wire.Marshal(out)
}

// Filter returns the subset of a dump whose keys satisfy keep.
func (Codec) Filter(dump []byte, keep func(string) bool) ([]byte, []string, error) {
	pairs, err := DecodePairs(dump)
	if err != nil {
		return nil, nil, err
	}
	var subset []Pair
	var keys []string
	for _, p := range pairs {
		if !p.Del && keep(p.Key) {
			subset = append(subset, p)
			keys = append(keys, p.Key)
		}
	}
	data, err := wire.Marshal(subset)
	return data, keys, err
}

// EncodeKeys externalizes a key batch for ProcDel.
func (Codec) EncodeKeys(keys []string) ([]byte, error) { return wire.Marshal(keys) }

// PutArgs externalizes one put.
func PutArgs(key, val string) ([]byte, error) {
	return wire.Marshal(Pair{Key: key, Val: val})
}
