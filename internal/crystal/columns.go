// Package crystal holds the parts of Crystal, Rock's distributed file
// system (paper §5.1), that the engine runs on, in-process: the
// dictionary-encoded columns with their posting lists and kernels, the
// per-environment column cache with its block partition, and the
// HyperCube planner of §5.2 that pairs each rule with block-granular work
// units carrying a cost estimate.
//
// Substitution note (DESIGN.md): the real Crystal spans a Kubernetes
// cluster and places data on a consistent-hash ring; in one process every
// worker reads the same columns, so placement is dropped and the worker
// pool (internal/cluster) takes the costliest pending unit next.
package crystal

import (
	"fmt"
	"sort"

	"github.com/rockclean/rock/internal/data"
)

// ValueID is an interned attribute value id (paper §5.1: Crystal
// "transforms attribute values to unique ids"). Ids fit uint32 so the
// dense per-column layout stays 4 bytes per tuple at 10⁷-tuple scale.
type ValueID = uint32

// NoValue marks a TID slot with no interned value (a TID the column has
// never seen — deleted, out of range, or inserted after the last refresh).
const NoValue ValueID = ^ValueID(0)

// Dictionary maps attribute values to unique ids. Ids are assigned in
// sorted value order at build time, so similar values receive nearby ids
// and the column-oriented copy gathers them together; values interned
// later (incremental inserts) append in arrival order — id stability wins
// over sortedness once the dictionary is live. Lookups key on
// data.Value.Key(), which canonicalises numerics, so interning agrees
// with Value.Equal (I(5), F(5) and TS(5) share one id).
type Dictionary struct {
	ids    map[string]ValueID
	values []data.Value
	nullID ValueID // id of the null entry; NoValue when the column has none
}

// buildEncoded is the single-pass build behind BuildColumn: each tuple's
// value keys exactly once, distinct values collect in first-sight order,
// ids re-rank into sorted value order, and the per-tuple id assignment
// (parallel to rel.Tuples) comes back with the dictionary so callers
// never pay a second Key-and-probe pass over the data.
func buildEncoded(rel *data.Relation, attr string) (*Dictionary, []ValueID, error) {
	ai := rel.Schema.Index(attr)
	if ai < 0 {
		return nil, nil, fmt.Errorf("crystal: %s has no attribute %q", rel.Schema.Name, attr)
	}
	sizeHint := 16 + len(rel.Tuples)/8
	firstSight := make(map[string]ValueID, sizeHint)
	keys := make([]string, 0, sizeHint)
	vals := make([]data.Value, 0, sizeHint)
	tup := make([]ValueID, len(rel.Tuples))
	// Run cache: grouped or sorted data repeats values back to back
	// (Equal implies Key-equal), so a run costs one Equal instead of a
	// Key allocation plus a map probe per tuple.
	var prev data.Value
	prevID := NoValue
	for i, t := range rel.Tuples {
		v := t.Values[ai]
		if prevID != NoValue && v.Equal(prev) {
			tup[i] = prevID
			continue
		}
		k := v.Key()
		id, ok := firstSight[k]
		if !ok {
			id = ValueID(len(vals))
			firstSight[k] = id
			keys = append(keys, k)
			vals = append(vals, v)
		}
		tup[i] = id
		prev, prevID = v, id
	}
	// Sorted-order id assignment: true value order (Compare), key text as
	// the deterministic tie-break for incomparable kinds. Sorting a
	// permutation of first-sight ids keeps the comparator map-free.
	perm := make([]ValueID, len(vals))
	for i := range perm {
		perm[i] = ValueID(i)
	}
	sort.Slice(perm, func(i, j int) bool {
		a, b := perm[i], perm[j]
		c := vals[a].Compare(vals[b])
		if c != 0 {
			return c < 0
		}
		return keys[a] < keys[b]
	})
	// The first-sight map becomes the dictionary's map: re-ranking its
	// ids in place skips a whole second build (hash, rehash, key copies)
	// over every distinct value.
	rank := make([]ValueID, len(vals))
	sortedVals := make([]data.Value, len(vals))
	d := &Dictionary{ids: firstSight, values: sortedVals, nullID: NoValue}
	for newID, old := range perm {
		rank[old] = ValueID(newID)
		sortedVals[newID] = vals[old]
		if vals[old].IsNull() {
			d.nullID = ValueID(newID)
		}
	}
	for k, id := range firstSight {
		firstSight[k] = rank[id]
	}
	for i, id := range tup {
		tup[i] = rank[id]
	}
	return d, tup, nil
}

func (d *Dictionary) intern(key string, v data.Value) ValueID {
	if id, ok := d.ids[key]; ok {
		return id
	}
	id := ValueID(len(d.values))
	d.ids[key] = id
	d.values = append(d.values, v)
	if v.IsNull() {
		d.nullID = id
	}
	return id
}

// Intern returns v's id, assigning the next free id on first sight.
// Appended ids break the sorted-order property but never invalidate
// existing ids — equality comparisons stay exact, range pruning must not
// rely on id order after the first Intern. Not safe for concurrent use.
func (d *Dictionary) Intern(v data.Value) ValueID { return d.intern(v.Key(), v) }

// ID returns the id of a value; ok is false for unseen values.
func (d *Dictionary) ID(v data.Value) (ValueID, bool) {
	id, ok := d.ids[v.Key()]
	return id, ok
}

// NullID returns the id of the column's null entry; ok is false when no
// null value was interned.
func (d *Dictionary) NullID() (ValueID, bool) { return d.nullID, d.nullID != NoValue }

// Value returns the value of an id.
func (d *Dictionary) Value(id ValueID) (data.Value, bool) {
	if int(id) >= len(d.values) {
		return data.Value{}, false
	}
	return d.values[id], true
}

// Size returns the number of distinct values.
func (d *Dictionary) Size() int { return len(d.values) }

// Column is the column-oriented copy of one attribute: a dense slice of
// dictionary ids indexed directly by TID (TIDs are assigned sequentially
// by Relation.Insert), plus the posting lists that gather equal values
// together. The dense layout replaces the old map[int]int: at 10⁶–10⁷
// tuples an id read is one bounds-checked slice index instead of a hashed
// map probe, and equality predicates compare uint32s with zero
// allocations.
type Column struct {
	Attr string
	Dict *Dictionary
	// IDs maps TID → value id; NoValue marks TIDs the column has no live
	// tuple for (deleted ones). Read-only outside Refresh.
	IDs []ValueID
	// Postings maps value id → sorted TIDs carrying it — the "similar
	// values gathered together" layout that accelerates hash joins and
	// blocking. Indexed by dictionary id; PostingList bounds-checks the
	// id.
	Postings [][]int
}

// BuildColumn encodes one attribute of a relation.
func BuildColumn(rel *data.Relation, attr string) (*Column, error) {
	dict, tup, err := buildEncoded(rel, attr)
	if err != nil {
		return nil, err
	}
	n := rel.NextTID()
	ids := make([]ValueID, n)
	for i := range ids {
		ids[i] = NoValue
	}
	// Counting sort into one shared backing array: postings come out as
	// adjacent subslices (capacity-clamped, so a Refresh append copies
	// out instead of clobbering a neighbour), and because rel.Tuples is
	// TID-ascending each bucket fills already sorted — one allocation
	// replaces per-bucket append churn and the per-bucket sort pass.
	counts := make([]int, dict.Size()+1)
	asc, last := true, -1
	for i, t := range rel.Tuples {
		if t.TID >= len(ids) { // defensive: TIDs past NextTID
			grown := make([]ValueID, t.TID+1)
			copy(grown, ids)
			for j := len(ids); j < len(grown); j++ {
				grown[j] = NoValue
			}
			ids = grown
		}
		ids[t.TID] = tup[i]
		counts[tup[i]+1]++
		if t.TID <= last {
			asc = false
		}
		last = t.TID
	}
	for i := 1; i < len(counts); i++ {
		counts[i] += counts[i-1]
	}
	flat := make([]int, len(rel.Tuples))
	cursor := append([]int(nil), counts[:dict.Size()]...)
	for i, t := range rel.Tuples {
		id := tup[i]
		flat[cursor[id]] = t.TID
		cursor[id]++
	}
	post := make([][]int, dict.Size())
	for id := range post {
		post[id] = flat[counts[id]:counts[id+1]:counts[id+1]]
		if !asc {
			sort.Ints(post[id])
		}
	}
	return &Column{Attr: attr, Dict: dict, IDs: ids, Postings: post}, nil
}

// setID stores id at tid, growing the dense slice with NoValue holes.
func (c *Column) setID(tid int, id ValueID) {
	for len(c.IDs) <= tid {
		c.IDs = append(c.IDs, NoValue)
	}
	c.IDs[tid] = id
}

// IDAt returns the interned id of the tuple's value; ok is false when the
// column holds no entry for the TID (the caller should fall back to the
// row-oriented value).
func (c *Column) IDAt(tid int) (ValueID, bool) {
	if tid < 0 || tid >= len(c.IDs) || c.IDs[tid] == NoValue {
		return NoValue, false
	}
	return c.IDs[tid], true
}

// PostingList returns the sorted TIDs carrying value id — a read-only
// view; callers must not mutate or retain it across a Refresh. Unknown
// ids return nil.
func (c *Column) PostingList(id ValueID) []int {
	if int(id) >= len(c.Postings) {
		return nil
	}
	return c.Postings[id]
}

// Refresh re-interns the raw values of the given TIDs (nil: every tuple),
// absorbing updates, inserts and deletes since the column was built. It
// walks the TIDs in ascending order through rel.Get, so it costs the TIDs
// it is given, not the relation, and values new to the dictionary get
// their appended ids in a deterministic order. Postings stay sorted.
func (c *Column) Refresh(rel *data.Relation, tids map[int]bool) {
	ai := rel.Schema.Index(c.Attr)
	if ai < 0 {
		return
	}
	if tids == nil {
		for _, t := range rel.Tuples {
			c.refreshTID(t.TID, t, ai)
		}
		return
	}
	order := make([]int, 0, len(tids))
	for tid, dirty := range tids {
		if dirty {
			order = append(order, tid)
		}
	}
	sort.Ints(order)
	for _, tid := range order {
		c.refreshTID(tid, rel.Get(tid), ai)
	}
}

// refreshTID re-interns one TID; t is its tuple, nil when none is live.
func (c *Column) refreshTID(tid int, t *data.Tuple, ai int) {
	old, had := c.IDAt(tid)
	if t == nil {
		if had {
			c.Postings[old] = removeSorted(c.Postings[old], tid)
			c.setID(tid, NoValue)
		}
		return
	}
	id := c.Dict.Intern(t.Values[ai])
	for int(id) >= len(c.Postings) {
		c.Postings = append(c.Postings, nil)
	}
	if had {
		if old == id {
			return
		}
		c.Postings[old] = removeSorted(c.Postings[old], tid)
	}
	c.setID(tid, id)
	c.Postings[id] = insertSorted(c.Postings[id], tid)
}

func removeSorted(s []int, x int) []int {
	i := sort.SearchInts(s, x)
	if i < len(s) && s[i] == x {
		return append(s[:i], s[i+1:]...)
	}
	return s
}

func insertSorted(s []int, x int) []int {
	i := sort.SearchInts(s, x)
	if i < len(s) && s[i] == x {
		return s
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = x
	return s
}
