package data

import (
	"sort"
	"strconv"
	"sync"
)

// CellRef identifies the A-attribute of a tuple: the unit that timestamps
// and temporal orders attach to.
type CellRef struct {
	Rel  string
	TID  int
	Attr string
}

// String renders the cell as Rel[tid].Attr.
func (c CellRef) String() string { return c.Rel + "[" + strconv.Itoa(c.TID) + "]." + c.Attr }

// TemporalRelation is (D, T): a relation plus a partial function T that
// associates a timestamp with the A-attribute of a tuple (paper §2.2). A
// timestamp asserts that at time T(t[A]) the value t[A] was correct and
// up-to-date; different attributes of a tuple may carry different
// timestamps because they come from different sources.
type TemporalRelation struct {
	*Relation
	stamps map[int]map[string]int64 // tid -> attr -> unix time
}

// NewTemporalRelation wraps a relation with an empty timestamp map.
func NewTemporalRelation(r *Relation) *TemporalRelation {
	return &TemporalRelation{Relation: r, stamps: make(map[int]map[string]int64)}
}

// Stamp records T(t[A]) = ts.
func (tr *TemporalRelation) Stamp(tid int, attr string, ts int64) {
	m := tr.stamps[tid]
	if m == nil {
		m = make(map[string]int64)
		tr.stamps[tid] = m
	}
	m[attr] = ts
}

// Timestamp returns T(t[A]) and whether it is defined.
func (tr *TemporalRelation) Timestamp(tid int, attr string) (int64, bool) {
	m := tr.stamps[tid]
	if m == nil {
		return 0, false
	}
	ts, ok := m[attr]
	return ts, ok
}

// TemporalOrder is a partial order ⪯_A on one attribute of one relation,
// represented as a set of ranked tuple pairs (t2, t1) meaning t2 ⪯_A t1:
// t1[A] is at least as current as t2[A]. Strict pairs t2 ≺_A t1 are tracked
// separately. Reachability queries close the stored pairs transitively.
type TemporalOrder struct {
	Rel  string
	Attr string

	succ       map[int]map[int]bool // weak edges: older -> newer
	strictSucc map[int]map[int]bool // strict edges: older -> newer
}

// NewTemporalOrder creates an empty order for Rel.Attr.
func NewTemporalOrder(rel, attr string) *TemporalOrder {
	return &TemporalOrder{
		Rel:        rel,
		Attr:       attr,
		succ:       make(map[int]map[int]bool),
		strictSucc: make(map[int]map[int]bool),
	}
}

// AddWeak records older ⪯_A newer.
func (o *TemporalOrder) AddWeak(older, newer int) {
	addEdge(o.succ, older, newer)
}

// AddStrict records older ≺_A newer (which implies older ⪯_A newer).
func (o *TemporalOrder) AddStrict(older, newer int) {
	addEdge(o.succ, older, newer)
	addEdge(o.strictSucc, older, newer)
}

func addEdge(m map[int]map[int]bool, from, to int) {
	s := m[from]
	if s == nil {
		s = make(map[int]bool)
		m[from] = s
	}
	s[to] = true
}

// Leq reports whether older ⪯_A newer holds in the transitive closure.
// Reflexivity: Leq(t, t) is always true.
func (o *TemporalOrder) Leq(older, newer int) bool {
	return older == newer || o.reach(older, newer, false)
}

// Less reports whether older ≺_A newer holds: a weak path from older to
// newer that uses at least one strict edge.
func (o *TemporalOrder) Less(older, newer int) bool {
	return older != newer && o.reach(older, newer, true)
}

// reach reports a path of one or more weak edges from one node to
// another — with a strict edge on it, when strict is set. The BFS tracks
// whether a strict edge has been used, so a node is visited at most once
// per strictness. A node without successors answers before taking the
// pooled scratch, and a warm query allocates nothing.
func (o *TemporalOrder) reach(from, to int, strict bool) bool {
	if len(o.succ[from]) == 0 {
		return false
	}
	b := searchPool.Get().(*search)
	defer b.release()
	b.queue = append(b.queue, step{from, false})
	for i := 0; i < len(b.queue); i++ {
		cur := b.queue[i]
		strictFrom := o.strictSucc[cur.node]
		for next := range o.succ[cur.node] {
			st := step{next, strict && (cur.strict || strictFrom[next])}
			if next == to && st.strict == strict {
				return true
			}
			if !b.seen[st] {
				b.seen[st] = true
				b.queue = append(b.queue, st)
			}
		}
	}
	return false
}

// search is the pooled scratch of one reach: the visited states and the
// BFS queue.
type search struct {
	seen  map[step]bool
	queue []step
}

type step struct {
	node   int
	strict bool // the path to node used a strict edge
}

// maxPooledSearch bounds the visited set a pooled scratch keeps: clearing
// a map costs its capacity, so one wide query must not tax every later
// one.
const maxPooledSearch = 1024

var searchPool = sync.Pool{New: func() any { return &search{seen: make(map[step]bool)} }}

func (b *search) release() {
	if len(b.seen) > maxPooledSearch {
		return
	}
	clear(b.seen)
	b.queue = b.queue[:0]
	searchPool.Put(b)
}

// Clone deep-copies the order including strict edges.
func (o *TemporalOrder) Clone() *TemporalOrder {
	c := NewTemporalOrder(o.Rel, o.Attr)
	for from, tos := range o.succ {
		for to := range tos {
			addEdge(c.succ, from, to)
		}
	}
	for from, tos := range o.strictSucc {
		for to := range tos {
			addEdge(c.strictSucc, from, to)
		}
	}
	return c
}

// Pairs returns all stored weak pairs (older, newer) in deterministic order;
// primarily for tests and reporting.
func (o *TemporalOrder) Pairs() [][2]int {
	var out [][2]int
	for from, tos := range o.succ {
		for to := range tos {
			out = append(out, [2]int{from, to})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// TemporalInstance bundles a database with temporal relations and one
// temporal order per (relation, attribute) — the D_t of paper §2.2.
type TemporalInstance struct {
	DB     *Database
	Stamps map[string]*TemporalRelation // by relation name
	Orders map[string]*TemporalOrder    // key: Rel + "." + Attr
}

// NewTemporalInstance wraps a database. All relations get (initially empty)
// timestamp maps; orders are created lazily.
func NewTemporalInstance(db *Database) *TemporalInstance {
	ti := &TemporalInstance{
		DB:     db,
		Stamps: make(map[string]*TemporalRelation),
		Orders: make(map[string]*TemporalOrder),
	}
	for name, r := range db.Relations {
		ti.Stamps[name] = NewTemporalRelation(r)
	}
	return ti
}

// Order returns (creating if needed) the temporal order for rel.attr.
func (ti *TemporalInstance) Order(rel, attr string) *TemporalOrder {
	key := rel + "." + attr
	o := ti.Orders[key]
	if o == nil {
		o = NewTemporalOrder(rel, attr)
		ti.Orders[key] = o
	}
	return o
}

// SeedFromTimestamps initialises each order from available timestamps: if
// T(t2[A]) and T(t1[A]) are both defined and T(t2[A]) ≤ T(t1[A]) then
// t2 ⪯_A t1 (paper §2.2). Strict pairs are added for strictly smaller
// timestamps.
func (ti *TemporalInstance) SeedFromTimestamps() {
	for name, tr := range ti.Stamps {
		rel := ti.DB.Rel(name)
		if rel == nil {
			continue
		}
		for _, attr := range rel.Schema.AttrNames() {
			type stamped struct {
				tid int
				ts  int64
			}
			var cells []stamped
			for _, t := range rel.Tuples {
				if ts, ok := tr.Timestamp(t.TID, attr); ok {
					cells = append(cells, stamped{t.TID, ts})
				}
			}
			if len(cells) < 2 {
				continue
			}
			o := ti.Order(name, attr)
			for i := 0; i < len(cells); i++ {
				for j := 0; j < len(cells); j++ {
					if i == j {
						continue
					}
					switch {
					case cells[i].ts < cells[j].ts:
						o.AddStrict(cells[i].tid, cells[j].tid)
					case cells[i].ts == cells[j].ts && cells[i].tid < cells[j].tid:
						o.AddWeak(cells[i].tid, cells[j].tid)
						o.AddWeak(cells[j].tid, cells[i].tid)
					}
				}
			}
		}
	}
}
