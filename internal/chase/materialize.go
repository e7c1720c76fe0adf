package chase

import (
	"sort"

	"github.com/rockclean/rock/internal/crystal"
	"github.com/rockclean/rock/internal/data"
)

// Change is one correction: a tuple cell whose validated value in U
// differs from the value the database stores.
type Change struct {
	Cell     data.CellRef
	Old, New data.Value
}

// changes diffs the fix set against the database. A correction needs a
// validated cell, so the scope is U's validated cells, each expanded
// through its entity class to the tuples carrying a member EID (the
// env's EID index). Each (tuple, attribute) belongs to at most one cell,
// so no tuple cell is compared twice and none outside U is compared at
// all. Sorted by the cell's rendering, the order corrections are
// reported in.
func (e *Engine) changes() []Change {
	var out []Change
	e.u.ForEachCell(func(relName, root, attr string, v data.Value) {
		rel := e.env.DB.Rel(relName)
		if rel == nil {
			return
		}
		col := rel.Schema.Index(attr)
		if col < 0 {
			return
		}
		for _, eid := range e.u.ClassMembers(root) {
			for _, t := range e.env.Columns.TuplesOfEID(rel, eid) {
				if !v.Equal(t.Values[col]) {
					out = append(out, Change{
						Cell: data.CellRef{Rel: relName, TID: t.TID, Attr: attr},
						Old:  t.Values[col], New: v,
					})
				}
			}
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Cell.String() < out[j].Cell.String() })
	return out
}

// MaterializeChanges writes the validated cells back into the database —
// the user-visible "corrected" dataset — and returns exactly the changes
// it wrote, with the values they replaced. It covers every tuple of the
// database as it stands: the env's EID index lists a tuple inserted after
// New as well as one present at it. The writes go through
// Relation.SetValue, so they move the relations' mutation counts, and the
// env's columns are refreshed for exactly the TIDs written instead of
// being rebuilt by their next reader.
func (e *Engine) MaterializeChanges() []Change {
	out := e.changes()
	if len(out) == 0 {
		return out
	}
	db := e.env.DB
	w := crystal.NewWrites(db)
	for _, c := range out {
		if db.Rel(c.Cell.Rel).SetValue(c.Cell.TID, c.Cell.Attr, c.New) {
			w.Wrote(c.Cell.Rel, c.Cell.TID)
		}
	}
	e.obs.Add("exec.columns.refreshed", uint64(e.env.Columns.Refresh(db, w)))
	return out
}

// Materialize is MaterializeChanges returning only the number of changed
// cells.
func (e *Engine) Materialize() int { return len(e.MaterializeChanges()) }
