package chase

import (
	"testing"

	"github.com/rockclean/rock/internal/data"
	"github.com/rockclean/rock/internal/must"
	"github.com/rockclean/rock/internal/truth"
)

// TestViewReadsFixSetUntilExtended: a cell validated after the view's
// last extension (the merge step applies fixes before absorb extends the
// view) is read through the fix set even for a tuple whose bit is clear,
// and after the extension the tuple is shadowed and still reads it.
func TestViewReadsFixSetUntilExtended(t *testing.T) {
	rel := data.NewRelation(must.Schema("R", data.Attribute{Name: "a", Type: data.TString}))
	t0 := rel.Insert("e0", data.S("raw0"))
	t1 := rel.Insert("e1", data.S("raw1"))
	db := data.NewDatabase()
	db.Add(rel)
	u := truth.NewFixSet()
	v := newView(u, db, func(_, eid string) []*data.Tuple {
		var out []*data.Tuple
		for _, tp := range rel.Tuples {
			if tp.EID == eid {
				out = append(out, tp)
			}
		}
		return out
	})
	if got := v.Value(rel, t0, 0); got != data.S("raw0") {
		t.Fatalf("before any fix t0 reads %v, want its raw value", got)
	}
	u.SetCell("R", "e0", "a", data.S("fixed"))
	if got := v.Value(rel, t0, 0); got != data.S("fixed") {
		t.Fatalf("before the extension t0 reads %v, want the validated cell", got)
	}
	if got := v.tuple(rel, t0).Values[0]; got != data.S("fixed") {
		t.Fatalf("before the extension t0's tuple reads %v, want the validated cell", got)
	}
	v.extend(map[string]map[int]bool{"R": {t0.TID: true}})
	if got := v.Value(rel, t0, 0); got != data.S("fixed") {
		t.Fatalf("after the extension t0 reads %v, want the validated cell", got)
	}
	if got := v.Value(rel, t1, 0); got != data.S("raw1") || v.tuple(rel, t1) != t1 {
		t.Fatalf("after the extension t1 reads %v, want its raw tuple", got)
	}
}
