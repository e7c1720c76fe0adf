package data

import (
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
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
// separately. Reachability queries close the stored pairs transitively,
// answering from a reachability index (reachIndex) that the first query
// builds and every later insert keeps current.
type TemporalOrder struct {
	Rel  string
	Attr string

	succ       map[int]map[int]bool // weak edges: older -> newer
	strictSucc map[int]map[int]bool // strict edges: older -> newer

	// idx is the closure of the edges, nil until the first Leq or Less;
	// mu serialises its build, since readers query concurrently. Inserts
	// update it in place: they run only while no reader does.
	idx atomic.Pointer[reachIndex]
	mu  sync.Mutex
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
	if ix := o.idx.Load(); ix != nil {
		ix.add(older, newer, false)
	}
}

// AddStrict records older ≺_A newer (which implies older ⪯_A newer).
func (o *TemporalOrder) AddStrict(older, newer int) {
	addEdge(o.succ, older, newer)
	addEdge(o.strictSucc, older, newer)
	if ix := o.idx.Load(); ix != nil {
		ix.add(older, newer, true)
	}
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
	return older == newer || o.index().reaches(older, newer, false)
}

// Less reports whether older ≺_A newer holds: a weak path from older to
// newer that uses at least one strict edge.
func (o *TemporalOrder) Less(older, newer int) bool {
	return older != newer && o.index().reaches(older, newer, true)
}

// index returns the reachability index, building it on first use.
func (o *TemporalOrder) index() *reachIndex {
	if ix := o.idx.Load(); ix != nil {
		return ix
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if ix := o.idx.Load(); ix != nil {
		return ix
	}
	ix := &reachIndex{row: make(map[int]int)}
	for from, tos := range o.succ {
		i := ix.node(from)
		for to := range tos {
			j := ix.node(to)
			setBit(&ix.weak[i], j)
			if o.strictSucc[from][to] {
				setBit(&ix.strict[i], j)
			}
		}
	}
	ix.close()
	o.idx.Store(ix)
	return ix
}

// reachIndex is the transitive closure of an order's edges as one bitset
// row per node: weak[i] holds the nodes reachable from node i by one or
// more edges, strict[i] those reachable by a path with a strict edge on
// it. Rows grow independently; a bit past a row's end is clear.
type reachIndex struct {
	row          map[int]int // TID -> node
	weak, strict [][]uint64
}

// node returns the node of tid, adding an empty one on first sight.
func (ix *reachIndex) node(tid int) int {
	if i, ok := ix.row[tid]; ok {
		return i
	}
	i := len(ix.weak)
	ix.row[tid] = i
	ix.weak = append(ix.weak, nil)
	ix.strict = append(ix.strict, nil)
	return i
}

// reaches reports a path of one or more edges from one TID to another
// (with a strict edge on it, when strict is set).
func (ix *reachIndex) reaches(from, to int, strict bool) bool {
	i, ok := ix.row[from]
	if !ok {
		return false
	}
	j, ok := ix.row[to]
	if !ok {
		return false
	}
	if strict {
		return hasBit(ix.strict[i], j)
	}
	return hasBit(ix.weak[i], j)
}

// close turns the direct edges into their closure, Warshall style: after
// step k every path whose inner nodes are at most k is in the rows.
func (ix *reachIndex) close() {
	for k := range ix.weak {
		for i := range ix.weak {
			ix.through(i, k)
		}
	}
}

// through extends row i by the paths that pass node k. The strict test
// comes second, so a strict cycle through k, just folded in from
// strict[k], makes every path on through k strict.
func (ix *reachIndex) through(i, k int) {
	if hasBit(ix.weak[i], k) {
		orBits(&ix.weak[i], ix.weak[k])
		orBits(&ix.strict[i], ix.strict[k])
	}
	if hasBit(ix.strict[i], k) {
		orBits(&ix.strict[i], ix.weak[k])
	}
}

// add records the edge from -> to in the closure. The new paths run
// i ⇝ from -> to ⇝ j for every i that is from or reaches it, and every j
// that is to or is reached from it; one is strict when the edge is, when
// i ⇝ from is, or when the edge closes a strict cycle (to ⇝ from strict),
// around which any such path can detour.
func (ix *reachIndex) add(from, to int, strict bool) {
	a, b := ix.node(from), ix.node(to)
	past := append([]uint64(nil), ix.weak[b]...) // {to} ∪ weak[to]
	setBit(&past, b)
	pastStrict := append([]uint64(nil), ix.strict[b]...)
	strict = strict || hasBit(ix.strict[b], a)
	for i := range ix.weak {
		if i != a && !hasBit(ix.weak[i], a) {
			continue
		}
		orBits(&ix.weak[i], past)
		if strict || hasBit(ix.strict[i], a) {
			orBits(&ix.strict[i], past)
		} else {
			orBits(&ix.strict[i], pastStrict)
		}
	}
}

func hasBit(row []uint64, j int) bool {
	return j/64 < len(row) && row[j/64]&(1<<(uint(j)%64)) != 0
}

func setBit(row *[]uint64, j int) {
	for len(*row) <= j/64 {
		*row = append(*row, 0)
	}
	(*row)[j/64] |= 1 << (uint(j) % 64)
}

// orBits ORs src into *dst, growing *dst to src's length.
func orBits(dst *[]uint64, src []uint64) {
	for len(*dst) < len(src) {
		*dst = append(*dst, 0)
	}
	d := *dst
	for w, x := range src {
		d[w] |= x
	}
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
