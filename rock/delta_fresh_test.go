package rock

import (
	"fmt"
	"reflect"
	"testing"
)

// TestDeltaKeptIndexesMatchFreshCache: the EID index and the blocks a
// pipeline's column cache keeps across deltas — extended by each delta's
// inserts — must answer as freshly built ones do. Every delta of a
// sequence (an insert repeating an existing entity's EID, an update,
// inserts landing in every block, and deltas after writes made outside
// any delta: a direct Insert, then a Delete) must detect the errors and
// make the corrections the same delta makes on a pipeline over an
// identical copy of the data, whose cache is built from scratch.
func TestDeltaKeptIndexesMatchFreshCache(t *testing.T) {
	const workers = 3
	build := func(db *Database) *Pipeline {
		opts := DefaultOptions()
		opts.Workers = workers
		opts.Predication = false
		p := NewPipelineWith(db, opts)
		p.MustAddRule("Ev(t) ^ Ev(s) ^ t.sku = s.sku -> t.mfg = s.mfg")
		// A validated cell: New seeds its shadow set and the corrections
		// diff expands it through the EID index.
		if err := p.Validate("Ev", "e7", "mfg", S("M-valid")); err != nil {
			t.Fatal(err)
		}
		return p
	}
	db := NewDB()
	ev := NewRel(MustSchema("Ev", Attribute{Name: "sku", Type: TString}, Attribute{Name: "mfg", Type: TString}))
	for i := 0; i < 40; i++ {
		ev.Insert(fmt.Sprintf("e%d", i), S(fmt.Sprintf("s%d", i%8)), S(fmt.Sprintf("M%d", i%8)))
	}
	db.Add(ev)
	p := build(db)
	if _, err := p.Clean(); err != nil {
		t.Fatal(err)
	}

	null := Null(TString)
	type op func(d *Delta)
	insert := func(eid, sku string, mfg Value) op {
		return func(d *Delta) { d.Insert("Ev", eid, S(sku), mfg) }
	}
	update := func(tid int, mfg Value) op {
		return func(d *Delta) { d.Update("Ev", tid, "mfg", mfg) }
	}
	steps := []struct {
		name    string
		outside func(rel *Relation) // a write no delta records, made first
		ops     []op
	}{
		{"insert repeating an EID", nil, []op{insert("e5", "s5", null), insert("e7", "s7", S("M-other"))}},
		{"update", nil, []op{update(12, null), update(21, S("M-wrong"))}},
		{"inserts into every block", nil, []op{
			insert("n1", "s1", null), insert("n2", "s2", null), insert("n3", "s3", null), insert("e30", "s6", null),
		}},
		{"after an outside insert", func(rel *Relation) { rel.Insert("e33", S("s1"), S("M-direct")) },
			[]op{insert("e33", "s1", null), update(3, null)}},
		{"after an outside delete", func(rel *Relation) { rel.Delete(10) },
			[]op{insert("e30", "s6", null), insert("e7", "s4", null), update(31, null), insert("n4", "s0", null)}},
	}
	for _, st := range steps {
		if st.outside != nil {
			st.outside(p.DB().Rel("Ev"))
		}
		fresh := build(p.DB().Clone())
		kept, cold := p.NewDelta(), fresh.NewDelta()
		for _, o := range st.ops {
			o(kept)
			o(cold)
		}
		keptErrs, err := kept.DetectIncremental()
		if err != nil {
			t.Fatal(err)
		}
		coldErrs, err := cold.DetectIncremental()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(keptErrs, coldErrs) {
			t.Fatalf("%s: the kept cache detects %v, a fresh one %v", st.name, keptErrs, coldErrs)
		}
		keptCorr, err := kept.CleanIncremental()
		if err != nil {
			t.Fatal(err)
		}
		coldCorr, err := cold.CleanIncremental()
		if err != nil {
			t.Fatal(err)
		}
		if len(coldCorr) == 0 {
			t.Fatalf("%s: the delta should make corrections", st.name)
		}
		if !reflect.DeepEqual(keptCorr, coldCorr) {
			t.Fatalf("%s: the kept cache corrects %v, a fresh one %v", st.name, keptCorr, coldCorr)
		}
	}
}
