package chase

import (
	"slices"

	"github.com/rockclean/rock/internal/data"
	"github.com/rockclean/rock/internal/predicate"
	"github.com/rockclean/rock/internal/truth"
)

// view is the chase's predicate.View (paper §4.1, condition (1)): a cell
// reads its validated value in the fix set first, its raw value
// otherwise. shadow[rel] lists, ascending, the TIDs of rel whose entity
// class may carry a validated cell — the tuples whose view may differ
// from raw data, and so the ones the executor reads through Value rather
// than by dictionary id. New seeds it from Γ; the merge step (absorb), a
// delta (RunIncrementalCtx) and a replica's FollowRound extend it. Those
// are serial points, so units read the lists without a lock.
//
// Every other tuple reads raw, so Value and tuple skip the fix set for
// it: each list is mirrored by a bitmap over the TIDs below its
// relation's NextTID at newView (the bound), and a tuple below the bound
// with a clear bit reads its raw data. That holds only while the fix set
// is as the last extend saw it (mark): the merge step applies fixes
// before absorb extends the lists, so its conflict resolution, and any
// read of a tuple inserted after newView, goes through the fix set.
type view struct {
	u      *truth.FixSet
	shadow map[string]*shadowSet
	mark   int // u.Mark() when the shadow sets were last brought up to date
}

// shadowSet is one relation's shadowed TIDs: the ascending list the
// executor reads, and the same TIDs below bound as a bitmap.
type shadowSet struct {
	tids  []int
	bits  []uint64
	bound int
}

// raw reports that t's view is its raw data, read without the fix set.
func (v *view) raw(rel *data.Relation, t *data.Tuple) bool {
	s := v.shadow[rel.Schema.Name]
	return s != nil && t.TID < s.bound && s.bits[t.TID/64]&(1<<(uint(t.TID)%64)) == 0 && v.u.Mark() == v.mark
}

// Value implements predicate.View.
func (v *view) Value(rel *data.Relation, t *data.Tuple, col int) data.Value {
	if col < 0 || col >= len(rel.Schema.Attrs) {
		return data.Value{}
	}
	if v.raw(rel, t) {
		return predicate.RawValue(t, col)
	}
	return v.cell(rel, t, col)
}

// cell reads column col (in range) of t through the fix set: its class's
// validated cell, else its raw value.
func (v *view) cell(rel *data.Relation, t *data.Tuple, col int) data.Value {
	if x, ok := v.u.Cell(rel.Schema.Name, t.EID, rel.Schema.Attrs[col].Name); ok {
		return x
	}
	return predicate.RawValue(t, col)
}

// tuple is t as seen through validated cells: t itself when no validated
// cell differs from its raw value, else a copy.
func (v *view) tuple(rel *data.Relation, t *data.Tuple) *data.Tuple {
	if v.raw(rel, t) {
		return t
	}
	vt := t
	for i, a := range rel.Schema.Attrs {
		if x, ok := v.u.Cell(rel.Schema.Name, t.EID, a.Name); ok && i < len(vt.Values) && x != vt.Values[i] {
			if vt == t {
				vt = t.Clone()
			}
			vt.Values[i] = x
		}
	}
	return vt
}

// Shadowed implements predicate.View.
func (v *view) Shadowed(rel *data.Relation) []int {
	if s := v.shadow[rel.Schema.Name]; s != nil {
		return s.tids
	}
	return nil
}

// newView seeds the shadow lists with every tuple of an entity class that
// carries a validated cell of its relation in u, walking each (relation,
// class) once, and bounds each relation's bitmap at its NextTID.
func newView(u *truth.FixSet, db *data.Database, tuplesOfEID func(rel, eid string) []*data.Tuple) *view {
	type relClass struct{ rel, root string }
	seen := make(map[relClass]bool)
	lists := make(map[string][]int)
	u.ForEachCell(func(rel, root, _ string, _ data.Value) {
		if seen[relClass{rel, root}] {
			return
		}
		seen[relClass{rel, root}] = true
		for _, member := range u.ClassMembers(root) {
			for _, t := range tuplesOfEID(rel, member) {
				lists[rel] = append(lists[rel], t.TID)
			}
		}
	})
	v := &view{u: u, shadow: make(map[string]*shadowSet), mark: u.Mark()}
	for name, rel := range db.Relations {
		n := rel.NextTID()
		v.shadow[name] = &shadowSet{bits: make([]uint64, (n+63)/64), bound: n}
	}
	for rel, tids := range lists {
		slices.Sort(tids)
		s := v.relShadow(rel)
		s.tids = slices.Compact(tids)
		for _, tid := range s.tids {
			s.add(tid)
		}
	}
	return v
}

// relShadow returns rel's shadow set, adding an empty one (bound 0: every
// read goes through the fix set) for a relation newView did not see.
func (v *view) relShadow(rel string) *shadowSet {
	s := v.shadow[rel]
	if s == nil {
		s = &shadowSet{}
		v.shadow[rel] = s
	}
	return s
}

// add sets tid's bit, when it is below the bound.
func (s *shadowSet) add(tid int) {
	if tid < s.bound {
		s.bits[tid/64] |= 1 << (uint(tid) % 64)
	}
}

// extend adds the TIDs of dirty to the shadow lists and brings the view
// up to date with u. Each list it changes is a fresh slice, so a list a
// caller still holds stays valid; the bitmaps gain the dirty bits in
// place.
func (v *view) extend(dirty map[string]map[int]bool) {
	for rel, tids := range dirty {
		if len(tids) == 0 {
			continue
		}
		s := v.relShadow(rel)
		list := append(make([]int, 0, len(s.tids)+len(tids)), s.tids...)
		for tid := range tids {
			list = append(list, tid)
			s.add(tid)
		}
		slices.Sort(list)
		s.tids = slices.Compact(list)
	}
	v.mark = v.u.Mark()
}
