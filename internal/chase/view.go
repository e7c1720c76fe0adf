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
type view struct {
	u      *truth.FixSet
	shadow map[string][]int
}

// Value implements predicate.View.
func (v *view) Value(rel *data.Relation, t *data.Tuple, col int) data.Value {
	if col < 0 || col >= len(rel.Schema.Attrs) {
		return data.Value{}
	}
	if x, ok := v.u.Cell(rel.Schema.Name, t.EID, rel.Schema.Attrs[col].Name); ok {
		return x
	}
	return predicate.RawValue(t, col)
}

// tuple is t as seen through validated cells: t itself when no validated
// cell differs from its raw value, else a copy.
func (v *view) tuple(rel *data.Relation, t *data.Tuple) *data.Tuple {
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
func (v *view) Shadowed(rel *data.Relation) []int { return v.shadow[rel.Schema.Name] }

// newView seeds the shadow lists with every tuple of an entity class that
// carries a validated cell of its relation in u, walking each (relation,
// class) once.
func newView(u *truth.FixSet, tuplesOfEID func(rel, eid string) []*data.Tuple) *view {
	type relClass struct{ rel, root string }
	seen := make(map[relClass]bool)
	shadow := make(map[string][]int)
	u.ForEachCell(func(rel, root, _ string, _ data.Value) {
		if seen[relClass{rel, root}] {
			return
		}
		seen[relClass{rel, root}] = true
		for _, member := range u.ClassMembers(root) {
			for _, t := range tuplesOfEID(rel, member) {
				shadow[rel] = append(shadow[rel], t.TID)
			}
		}
	})
	for rel, tids := range shadow {
		slices.Sort(tids)
		shadow[rel] = slices.Compact(tids)
	}
	return &view{u: u, shadow: shadow}
}

// extend adds the TIDs of dirty to the shadow lists. Each list it changes
// is a fresh slice, so a list a caller still holds stays valid.
func (v *view) extend(dirty map[string]map[int]bool) {
	for rel, tids := range dirty {
		if len(tids) == 0 {
			continue
		}
		old := v.shadow[rel]
		list := append(make([]int, 0, len(old)+len(tids)), old...)
		for tid := range tids {
			list = append(list, tid)
		}
		slices.Sort(list)
		v.shadow[rel] = slices.Compact(list)
	}
}
