package crystal

import (
	"hash/maphash"

	"github.com/rockclean/rock/internal/data"
)

// Block is one virtual block of a relation (the HyperCube blocks of paper
// §5.3): tuples in relation order with their TIDs, index for index. A
// Cache's blocks carry both and are TID-ascending, as Relation.Tuples is by
// construction. A Block built by hand may leave TIDs nil; the executor
// then extracts them and reports a block that is not TID-ascending.
type Block struct {
	Tuples []*data.Tuple
	TIDs   []int
}

// clip returns b with its capacities cut to its lengths, so an append to
// the cache's slices never shows through it and an append to it never
// writes into them.
func (b Block) clip() Block {
	return Block{Tuples: b.Tuples[:len(b.Tuples):len(b.Tuples)], TIDs: b.TIDs[:len(b.TIDs):len(b.TIDs)]}
}

// shape is a relation's (NextTID, Len). Insert moves both by one, Delete
// moves only Len and SetValue neither, so the tuple set changed by
// appends alone exactly when both moved by the same amount — and the
// appended tuples are then rel.Tuples[old.n:]. EIDs and TIDs never
// change, so a structure over them is current while its shape is.
type shape struct{ next, n int }

func shapeOf(rel *data.Relation) shape { return shape{rel.NextTID(), rel.Len()} }

// grewTo reports whether the relation went from s to now by appends only
// (none at all included).
func (s shape) grewTo(now shape) bool { return now.n >= s.n && now.next-s.next == now.n-s.n }

// eidIndex lists a relation's tuples by EID as chains of positions in
// rel.Tuples, one chain per hash of the EID: ends[h] holds the first and
// last position of the chain and next[p] the position after p, -1 at the
// end. Positions only grow along a chain, so a lookup — which keeps the
// chain's tuples that carry its EID, as two EIDs may share a hash — lists
// tuples in relation (TID) order, and an append links new positions onto
// the tails. Four bytes per tuple and one pointer-free map entry per EID:
// no slice and no string key per EID.
type eidIndex struct {
	at   shape
	seed maphash.Seed
	ends map[uint64][2]int32
	next []int32
}

// add indexes ts[from:], the tuples at positions from onwards.
func (x *eidIndex) add(ts []*data.Tuple, from int) {
	for p := from; p < len(ts); p++ {
		h := maphash.String(x.seed, ts[p].EID)
		x.next = append(x.next, -1)
		if e, ok := x.ends[h]; ok {
			x.next[e[1]] = int32(p)
			x.ends[h] = [2]int32{e[0], int32(p)}
		} else {
			x.ends[h] = [2]int32{int32(p), int32(p)}
		}
	}
}

// partition is a relation's TID % b blocks, owned by the cache; callers
// get clipped views.
type partition struct {
	at     shape
	blocks []Block
}

// add places ts in their blocks. Appended tuples carry TIDs above every
// indexed one, so each block stays TID-ascending.
func (pt *partition) add(ts []*data.Tuple) {
	b := len(pt.blocks)
	for _, t := range ts {
		bl := &pt.blocks[t.TID%b]
		bl.Tuples = append(bl.Tuples, t)
		bl.TIDs = append(bl.TIDs, t.TID)
	}
}

// tuplesOfEID serves Cache.TuplesOfEID.
func (cs *ColumnStore) tuplesOfEID(eid string) []*data.Tuple {
	cs.tmu.Lock()
	defer cs.tmu.Unlock()
	now := shapeOf(cs.rel)
	x := cs.eids
	switch {
	case x != nil && x.at == now:
	case x != nil && x.at.grewTo(now):
		x.add(cs.rel.Tuples, x.at.n)
		x.at = now
	default:
		// Sized for one EID per tuple, the common case: a build that
		// never grows the map costs a third less.
		x = &eidIndex{at: now, seed: maphash.MakeSeed(), ends: make(map[uint64][2]int32, now.n), next: make([]int32, 0, now.n)}
		x.add(cs.rel.Tuples, 0)
		cs.eids = x
	}
	e, ok := x.ends[maphash.String(x.seed, eid)]
	if !ok {
		return nil
	}
	var out []*data.Tuple
	for p := e[0]; p >= 0; p = x.next[p] {
		if t := cs.rel.Tuples[p]; t.EID == eid {
			out = append(out, t)
		}
	}
	return out
}

// blocks serves Cache.Blocks.
func (cs *ColumnStore) blocks(b int) []Block {
	b = max(b, 1)
	cs.tmu.Lock()
	defer cs.tmu.Unlock()
	now := shapeOf(cs.rel)
	pt := cs.parts[b]
	switch {
	case pt != nil && pt.at == now:
	case pt != nil && pt.at.grewTo(now):
		pt.add(cs.rel.Tuples[pt.at.n:])
		pt.at = now
	default:
		// Each block is sized for its TID % b share, so the build copies
		// no block while it grows.
		pt = &partition{at: now, blocks: make([]Block, b)}
		per := len(cs.rel.Tuples)/b + 1
		for i := range pt.blocks {
			pt.blocks[i] = Block{Tuples: make([]*data.Tuple, 0, per), TIDs: make([]int, 0, per)}
		}
		pt.add(cs.rel.Tuples)
		if cs.parts == nil {
			cs.parts = make(map[int]*partition)
		}
		cs.parts[b] = pt
	}
	views := make([]Block, b)
	for i, bl := range pt.blocks {
		views[i] = bl.clip()
	}
	return views
}

// TuplesOfEID returns rel's tuples carrying eid, in relation (TID) order,
// as a new slice, from the relation's EID index: built on the first
// lookup, extended by appends, rebuilt after any other change of shape. A
// nil Cache scans the relation.
func (c *Cache) TuplesOfEID(rel *data.Relation, eid string) []*data.Tuple {
	if c == nil {
		var out []*data.Tuple
		for _, t := range rel.Tuples {
			if t.EID == eid {
				out = append(out, t)
			}
		}
		return out
	}
	return c.store(rel).tuplesOfEID(eid)
}

// Blocks returns rel's b blocks by TID % b (b < 1 counts as 1) as
// clipped views: current at the relation's shape, extended in place when
// it only grew since they were built, rebuilt after any other change. A
// view a caller holds never changes. A nil Cache partitions afresh.
func (c *Cache) Blocks(rel *data.Relation, b int) []Block {
	if c == nil {
		return newColumnStore(rel).blocks(b)
	}
	return c.store(rel).blocks(b)
}

// Partition splits every relation of db into b virtual blocks by TID —
// the HyperCube partitioning of paper §5.3 — keyed by relation name. The
// result depends on db and b alone, so every replica of a distributed
// chase plans over the same blocks. Detection and the chase both ask for
// Workers blocks, so the two plan over one cached partition.
func (c *Cache) Partition(db *data.Database, b int) map[string][]Block {
	out := make(map[string][]Block, len(db.Relations))
	for name, rel := range db.Relations {
		out[name] = c.Blocks(rel, b)
	}
	return out
}
