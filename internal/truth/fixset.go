// Package truth maintains the fixes and ground truth of Rock's chase
// (paper §4.1): U = (E=, E⪯), where E= holds entity-identification classes
// [EID]= and validated attribute values [EID.A]=, and E⪯ holds validated
// temporal orders [A]⪯. Ground truth Γ = (Γ=, Γ⪯) is a FixSet seeded from
// master data and timestamps; the chase extends a copy of it and checks
// validity (no conflicting fixes) after every step.
package truth

import (
	"fmt"
	"sort"
	"strings"

	"github.com/rockclean/rock/internal/data"
)

// UnionFind tracks entity-identification classes over EID strings.
type UnionFind struct {
	parent  map[string]string
	rank    map[string]int
	members map[string][]string // root -> all elements of the class
}

// NewUnionFind creates an empty structure.
func NewUnionFind() *UnionFind {
	return &UnionFind{
		parent:  make(map[string]string),
		rank:    make(map[string]int),
		members: make(map[string][]string),
	}
}

// Find returns the class representative of x, creating a singleton class on
// first sight. It mutates the structure (path compression, singleton
// creation) and must only be called from write paths; concurrent readers
// use FindRO.
func (u *UnionFind) Find(x string) string {
	p, ok := u.parent[x]
	if !ok {
		u.parent[x] = x
		u.members[x] = []string{x}
		return x
	}
	if p == x {
		return x
	}
	root := u.Find(p)
	u.parent[x] = root
	return root
}

// FindRO returns the class representative of x without mutating the
// structure: no path compression, and an unseen x is its own representative.
// Safe for concurrent use as long as no writer runs at the same time — the
// chase reads the start-of-round fix set from many workers and applies
// fixes only after they join.
func (u *UnionFind) FindRO(x string) string {
	for {
		p, ok := u.parent[x]
		if !ok || p == x {
			return x
		}
		x = p
	}
}

// Union merges the classes of a and b; it reports whether anything changed.
func (u *UnionFind) Union(a, b string) bool {
	ra, rb := u.Find(a), u.Find(b)
	if ra == rb {
		return false
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	u.members[ra] = append(u.members[ra], u.members[rb]...)
	delete(u.members, rb)
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
	return true
}

// Members returns every element of x's class (including x). Read-only:
// safe for concurrent readers while no writer runs.
func (u *UnionFind) Members(x string) []string {
	if m, ok := u.members[u.FindRO(x)]; ok {
		return m
	}
	return []string{x}
}

// Same reports whether a and b are in the same class. Read-only.
func (u *UnionFind) Same(a, b string) bool { return u.FindRO(a) == u.FindRO(b) }

// Clone deep-copies the structure.
func (u *UnionFind) Clone() *UnionFind {
	c := NewUnionFind()
	for k, v := range u.parent {
		c.parent[k] = v
	}
	for k, v := range u.rank {
		c.rank[k] = v
	}
	for k, v := range u.members {
		c.members[k] = append([]string(nil), v...)
	}
	return c
}

// ConflictKind classifies why a fix set would become invalid.
type ConflictKind int

// Conflict kinds, matching the validity conditions of paper §4.1: (a) an
// attribute deduced to hold two distinct constants, or an entity merge
// implying such a clash or contradicting a validated non-identity; (b) a
// temporal order with t1 ≺ t2 and t2 ⪯ t1.
const (
	ValueConflict ConflictKind = iota
	EIDConflict
	OrderConflict
)

// Conflict describes a rejected fix.
type Conflict struct {
	Kind ConflictKind
	// Rel/Attr/EID locate the clash for value conflicts.
	Rel, Attr, EID string
	Old, New       data.Value
	// A, B are the entities (EID conflict) or tuple ids rendered as
	// strings (order conflict).
	A, B string
}

// Error renders the conflict.
func (c *Conflict) Error() string {
	switch c.Kind {
	case ValueConflict:
		return fmt.Sprintf("value conflict on %s.%s of entity %s: %v vs %v", c.Rel, c.Attr, c.EID, c.Old, c.New)
	case EIDConflict:
		return fmt.Sprintf("entity conflict: %s and %s validated distinct but deduced equal", c.A, c.B)
	case OrderConflict:
		return fmt.Sprintf("temporal order conflict on %s.%s between tuples %s and %s", c.Rel, c.Attr, c.A, c.B)
	}
	return "unknown conflict"
}

type cellKey struct {
	rel, attr, eidRoot string
}

type eidPair struct{ a, b string } // a < b, class roots at insertion time

// FixSet is U = (E=, E⪯).
type FixSet struct {
	eids *UnionFind
	// neq records validated non-identities (consequences t.eid != s.eid).
	neq map[eidPair]bool
	// cells records [EID.A]= singletons: the validated constant for the
	// attribute of an entity class.
	cells map[cellKey]data.Value
	// orders records [A]⪯ per relation.attr.
	orders map[string]*data.TemporalOrder

	// journal records every successful mutation as a replayable Op, in
	// order (see journal.go) — the fix set's one change log, which the
	// distributed chase replicates.
	journal []Op
}

// NewFixSet creates an empty fix set.
func NewFixSet() *FixSet {
	return &FixSet{
		eids:   NewUnionFind(),
		neq:    make(map[eidPair]bool),
		cells:  make(map[cellKey]data.Value),
		orders: make(map[string]*data.TemporalOrder),
	}
}

func canonPair(a, b string) eidPair {
	if a > b {
		a, b = b, a
	}
	return eidPair{a, b}
}

// SameEntity reports whether the two EIDs are validated identical.
// Read-only: safe for concurrent readers while no fix is being applied.
func (f *FixSet) SameEntity(a, b string) bool { return f.eids.Same(a, b) }

// DistinctEntity reports whether the two EIDs are validated distinct.
// Read-only: safe for concurrent readers while no fix is being applied.
func (f *FixSet) DistinctEntity(a, b string) bool {
	return f.neq[canonPair(f.eids.FindRO(a), f.eids.FindRO(b))]
}

// MergeEIDs validates a = b. It fails with an EIDConflict when the pair is
// validated distinct, or with a ValueConflict when merging the classes
// would give some attribute two distinct validated constants.
func (f *FixSet) MergeEIDs(a, b string) (changed bool, conflict *Conflict) {
	ra, rb := f.eids.Find(a), f.eids.Find(b)
	if ra == rb {
		return false, nil
	}
	if f.neq[canonPair(ra, rb)] {
		return false, &Conflict{Kind: EIDConflict, A: a, B: b}
	}
	// Check cell compatibility before merging.
	for k, v := range f.cells {
		if k.eidRoot != ra {
			continue
		}
		other := cellKey{k.rel, k.attr, rb}
		if w, ok := f.cells[other]; ok && !w.Equal(v) {
			return false, &Conflict{Kind: ValueConflict, Rel: k.rel, Attr: k.attr, EID: a, Old: v, New: w}
		}
	}
	f.eids.Union(ra, rb)
	root := f.eids.Find(ra)
	// Re-key cells and neq entries of the absorbed roots.
	for _, old := range []string{ra, rb} {
		if old == root {
			continue
		}
		for k, v := range f.cells {
			if k.eidRoot == old {
				delete(f.cells, k)
				f.cells[cellKey{k.rel, k.attr, root}] = v
			}
		}
		for p := range f.neq {
			if p.a == old || p.b == old {
				delete(f.neq, p)
				na, nb := p.a, p.b
				if na == old {
					na = root
				}
				if nb == old {
					nb = root
				}
				f.neq[canonPair(na, nb)] = true
			}
		}
	}
	f.record(Op{Kind: OpMergeEIDs, A: a, B: b})
	return true, nil
}

// SeparateEIDs validates a ≠ b; EIDConflict when already identified.
func (f *FixSet) SeparateEIDs(a, b string) (changed bool, conflict *Conflict) {
	ra, rb := f.eids.Find(a), f.eids.Find(b)
	if ra == rb {
		return false, &Conflict{Kind: EIDConflict, A: a, B: b}
	}
	p := canonPair(ra, rb)
	if f.neq[p] {
		return false, nil
	}
	f.neq[p] = true
	f.record(Op{Kind: OpSeparateEIDs, A: a, B: b})
	return true, nil
}

// SetCell validates [EID.A]= c. ValueConflict when a distinct constant is
// already validated for the class.
func (f *FixSet) SetCell(rel, eid, attr string, v data.Value) (changed bool, conflict *Conflict) {
	k := cellKey{rel, attr, f.eids.Find(eid)}
	if old, ok := f.cells[k]; ok {
		if old.Equal(v) {
			return false, nil
		}
		return false, &Conflict{Kind: ValueConflict, Rel: rel, Attr: attr, EID: eid, Old: old, New: v}
	}
	f.cells[k] = v
	f.record(Op{Kind: OpSetCell, Rel: rel, Attr: attr, A: eid, Value: v})
	return true, nil
}

// Cell returns the validated constant for (rel, eid, attr), if any.
// Read-only: safe for concurrent readers while no fix is being applied —
// the parallel chase reads the start-of-round fix set from every worker.
func (f *FixSet) Cell(rel, eid, attr string) (data.Value, bool) {
	v, ok := f.cells[cellKey{rel, attr, f.eids.FindRO(eid)}]
	return v, ok
}

// ForEachCell visits every validated cell [EID.A]= of the fix set, in
// unspecified order; eidRoot is the entity-class representative (use
// ClassMembers to expand it). Read-only: safe while no fix is being
// applied. The chase seeds its view's shadowed tuples from it and diffs
// the database against it — a tuple's view can differ from raw data only
// at a validated cell.
func (f *FixSet) ForEachCell(fn func(rel, eidRoot, attr string, v data.Value)) {
	for k, v := range f.cells {
		fn(k.rel, k.eidRoot, k.attr, v)
	}
}

// ReplaceCell overwrites the validated constant for (rel, eid, attr) —
// only the chase's learning-based conflict resolution may do this, after
// deciding a winner (paper §4.2, MI conflict case).
func (f *FixSet) ReplaceCell(rel, eid, attr string, v data.Value) {
	k := cellKey{rel, attr, f.eids.Find(eid)}
	f.cells[k] = v
	f.record(Op{Kind: OpReplaceCell, Rel: rel, Attr: attr, A: eid, Value: v})
}

// ClassMembers returns every EID validated identical to eid (including
// itself). Read-only: safe for concurrent readers while no fix is being
// applied.
func (f *FixSet) ClassMembers(eid string) []string { return f.eids.Members(eid) }

// ReplaceOrder swaps the whole validated order for rel.attr — used by the
// TD conflict resolution to rebuild an order after retracting a losing fix.
func (f *FixSet) ReplaceOrder(rel, attr string, o *data.TemporalOrder) {
	f.orders[rel+"."+attr] = o
	pairs, strict := encodeOrder(o)
	f.record(Op{Kind: OpReplaceOrder, Rel: rel, Attr: attr, OrderPairs: pairs, OrderStrict: strict})
}

// Order returns (creating if needed) the validated order for rel.attr.
func (f *FixSet) Order(rel, attr string) *data.TemporalOrder {
	key := rel + "." + attr
	o := f.orders[key]
	if o == nil {
		o = data.NewTemporalOrder(rel, attr)
		f.orders[key] = o
	}
	return o
}

// OrderIfAny returns the order for rel.attr without creating one.
func (f *FixSet) OrderIfAny(rel, attr string) *data.TemporalOrder {
	return f.orders[rel+"."+attr]
}

// AddOrder validates older ⪯/≺ newer on rel.attr. OrderConflict when the
// addition would create a strict cycle (t1 ≺ t2 with t2 ⪯ t1 already).
func (f *FixSet) AddOrder(rel, attr string, olderTID, newerTID int, strict bool) (changed bool, conflict *Conflict) {
	o := f.Order(rel, attr)
	conflictHere := func() *Conflict {
		return &Conflict{Kind: OrderConflict, Rel: rel, Attr: attr,
			A: fmt.Sprint(olderTID), B: fmt.Sprint(newerTID)}
	}
	if strict {
		if o.Leq(newerTID, olderTID) {
			return false, conflictHere()
		}
		if o.Less(olderTID, newerTID) {
			return false, nil
		}
		o.AddStrict(olderTID, newerTID)
		f.record(Op{Kind: OpAddOrder, Rel: rel, Attr: attr, TID1: olderTID, TID2: newerTID, Strict: true})
		return true, nil
	}
	if o.Less(newerTID, olderTID) {
		return false, conflictHere()
	}
	if o.Leq(olderTID, newerTID) {
		return false, nil
	}
	o.AddWeak(olderTID, newerTID)
	f.record(Op{Kind: OpAddOrder, Rel: rel, Attr: attr, TID1: olderTID, TID2: newerTID, Strict: false})
	return true, nil
}

// Classes returns every entity class with at least two members, each
// sorted, in deterministic order.
func (f *FixSet) Classes() [][]string {
	byRoot := make(map[string][]string)
	for e := range f.eids.parent {
		r := f.eids.FindRO(e)
		byRoot[r] = append(byRoot[r], e)
	}
	var out [][]string
	for _, members := range byRoot {
		if len(members) < 2 {
			continue
		}
		sort.Strings(members)
		out = append(out, members)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// Orders returns the validated temporal orders keyed by "rel.attr".
func (f *FixSet) Orders() map[string]*data.TemporalOrder {
	out := make(map[string]*data.TemporalOrder, len(f.orders))
	for k, o := range f.orders {
		out[k] = o
	}
	return out
}

// Clone deep-copies the fix set's content; the chase uses copies for trial
// steps and Church-Rosser tests compare independent runs. The clone's
// journal starts empty: it records the clone's own mutations, so replaying
// it over another copy of f reproduces the clone.
func (f *FixSet) Clone() *FixSet {
	c := NewFixSet()
	c.eids = f.eids.Clone()
	for k, v := range f.neq {
		c.neq[k] = v
	}
	for k, v := range f.cells {
		c.cells[k] = v
	}
	for k, o := range f.orders {
		c.orders[k] = o.Clone()
	}
	return c
}

// Snapshot returns a deterministic textual digest of the fix set: merged
// classes, validated cells and order pairs. Two fix sets with the same
// logical content produce identical snapshots — used to verify the
// Church-Rosser property in tests.
func (f *FixSet) Snapshot() string {
	// Group EIDs by class.
	classes := make(map[string][]string)
	for e := range f.eids.parent {
		r := f.eids.FindRO(e)
		classes[r] = append(classes[r], e)
	}
	var lines []string
	for _, members := range classes {
		sort.Strings(members)
		if len(members) >= 2 {
			lines = append(lines, "class{"+strings.Join(members, ";")+"}")
		}
	}
	for k, v := range f.cells {
		// Use a representative member-independent key: smallest EID in class.
		rep := k.eidRoot
		if members := classes[k.eidRoot]; len(members) > 0 {
			rep = members[0]
		}
		lines = append(lines, "cell{"+k.rel+"."+k.attr+"@"+rep+"="+v.Key()+"}")
	}
	for key, o := range f.orders {
		for _, p := range o.Pairs() {
			tag := "w"
			if o.Less(p[0], p[1]) {
				tag = "s"
			}
			lines = append(lines, fmt.Sprintf("ord{%s:%d%s%d}", key, p[0], tag, p[1]))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, ";")
}
