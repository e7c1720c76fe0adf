package chase_test

import (
	"context"
	"testing"

	"github.com/rockclean/rock/internal/baselines"
	"github.com/rockclean/rock/internal/chase"
	"github.com/rockclean/rock/internal/data"
	"github.com/rockclean/rock/internal/workload"
)

// checkShadowed requires the view invariant the executor relies on: every
// tuple with an attribute whose view value differs from its raw value is
// in Shadowed(rel). A tuple missing from it would be compared by the
// dictionary id of its raw value.
func checkShadowed(t *testing.T, when string, eng *chase.Engine, db *data.Database) {
	t.Helper()
	v := eng.View()
	for name, rel := range db.Relations {
		shadowed := make(map[int]bool)
		for _, tid := range v.Shadowed(rel) {
			shadowed[tid] = true
		}
		for _, tp := range rel.Tuples {
			if shadowed[tp.TID] {
				continue
			}
			for col, raw := range tp.Values {
				if got := v.Value(rel, tp, col); got != raw {
					t.Fatalf("%s: %s TID %d (EID %s) reads %s = %v through the view, raw %v, but is not shadowed",
						when, name, tp.TID, tp.EID, rel.Schema.Attrs[col].Name, got, raw)
				}
			}
		}
	}
}

// TestViewShadowsEveryChangedTuple runs the chase one round at a time on
// the three applications and checks the view invariant after New and
// after every round's merge step, then after a delta that inserts a tuple
// into an entity class with a validated cell.
func TestViewShadowsEveryChangedTuple(t *testing.T) {
	cfg := workload.Config{N: 300, Seed: 7}
	merges := 0
	for _, app := range []struct {
		name string
		mk   func(workload.Config) *workload.Dataset
	}{{"bank", workload.Bank}, {"logistics", workload.Logistics}, {"sales", workload.Sales}} {
		t.Run(app.name, func(t *testing.T) {
			bench := baselines.NewBench(app.mk(cfg), 2)
			db := bench.Env.DB
			opts := chase.DefaultOptions()
			opts.Workers = 2
			opts.EIDRefs = bench.DS.EIDRefs
			eng := chase.New(bench.Env, bench.Rules, bench.DS.Gamma, opts)
			checkShadowed(t, "after New", eng, db)
			ctx := context.Background()
			for round := 1; ; round++ {
				if round > 100 {
					t.Fatal("no fixpoint after 100 rounds")
				}
				rep, err := eng.RunRules(ctx, bench.Rules, 1)
				if err != nil {
					t.Fatal(err)
				}
				checkShadowed(t, "after a round", eng, db)
				if rep.Trace[len(rep.Trace)-1].Applied == 0 {
					for _, fx := range rep.Applied {
						if fx.Kind == chase.FixMerge {
							merges++
						}
					}
					break
				}
			}

			// The delta: a copy of a tuple whose class has a validated cell,
			// raw null in that cell's attribute.
			u := eng.Truth()
			var rel *data.Relation
			var eid string
			col := -1
			u.ForEachCell(func(relName, root, attr string, _ data.Value) {
				if rel == nil || relName < rel.Schema.Name || (relName == rel.Schema.Name && root < eid) {
					rel, eid, col = db.Rel(relName), root, db.Rel(relName).Schema.Index(attr)
				}
			})
			if rel == nil {
				t.Fatal("the chase validated no cell")
			}
			vals := make([]data.Value, len(rel.Schema.Attrs))
			for i, a := range rel.Schema.Attrs {
				vals[i] = data.Null(a.Type)
			}
			nt := rel.Insert(eid, vals...)
			if got := eng.View().Value(rel, nt, col); got.IsNull() {
				t.Fatalf("the inserted tuple should read its class's validated %s", rel.Schema.Attrs[col].Name)
			}
			dirty := map[string]map[int]bool{rel.Schema.Name: {nt.TID: true}}
			// A cancelled context extends the view by the delta and runs no
			// round; the second call chases the delta to its fixpoint.
			cancelled, cancel := context.WithCancel(ctx)
			cancel()
			if _, err := eng.RunIncrementalCtx(cancelled, dirty); err != nil {
				t.Fatal(err)
			}
			checkShadowed(t, "after the delta", eng, db)
			if _, err := eng.RunIncrementalCtx(ctx, dirty); err != nil {
				t.Fatal(err)
			}
			checkShadowed(t, "after the delta's chase", eng, db)
		})
	}
	if merges == 0 {
		t.Fatal("no application merged an entity: the merge-step extension went unchecked")
	}
}

// TestViewBitmapMatchesFixSet runs the chase one round at a time on the
// three applications and requires that the view, bitmap shortcut
// included, reads every cell of every tuple as the fix set defines it:
// after New, after every round's merge step, after a delta inserts a
// tuple past the bitmaps' bound into a class with a validated cell, and
// after the delta's chase.
func TestViewBitmapMatchesFixSet(t *testing.T) {
	cfg := workload.Config{N: 300, Seed: 7}
	for _, app := range []struct {
		name string
		mk   func(workload.Config) *workload.Dataset
	}{{"bank", workload.Bank}, {"logistics", workload.Logistics}, {"sales", workload.Sales}} {
		t.Run(app.name, func(t *testing.T) {
			bench := baselines.NewBench(app.mk(cfg), 2)
			db := bench.Env.DB
			opts := chase.DefaultOptions()
			opts.Workers = 2
			opts.EIDRefs = bench.DS.EIDRefs
			eng := chase.New(bench.Env, bench.Rules, bench.DS.Gamma, opts)
			same := func(when string) {
				t.Helper()
				fast, fixed := eng.FastView(), eng.View()
				for name, rel := range db.Relations {
					for _, tp := range rel.Tuples {
						for col := -1; col <= len(rel.Schema.Attrs); col++ {
							if got, want := fast.Value(rel, tp, col), fixed.Value(rel, tp, col); got != want {
								t.Fatalf("%s: %s TID %d column %d reads %v, the fix set %v", when, name, tp.TID, col, got, want)
							}
						}
					}
				}
			}
			same("after New")
			ctx := context.Background()
			for round := 1; ; round++ {
				if round > 100 {
					t.Fatal("no fixpoint after 100 rounds")
				}
				rep, err := eng.RunRules(ctx, bench.Rules, 1)
				if err != nil {
					t.Fatal(err)
				}
				same("after a round")
				if rep.Trace[len(rep.Trace)-1].Applied == 0 {
					break
				}
			}
			var rel *data.Relation
			var eid string
			eng.Truth().ForEachCell(func(relName, root, _ string, _ data.Value) {
				if rel == nil || relName < rel.Schema.Name || (relName == rel.Schema.Name && root < eid) {
					rel, eid = db.Rel(relName), root
				}
			})
			if rel == nil {
				t.Fatal("the chase validated no cell")
			}
			vals := make([]data.Value, len(rel.Schema.Attrs))
			for i, a := range rel.Schema.Attrs {
				vals[i] = data.Null(a.Type)
			}
			nt := rel.Insert(eid, vals...)
			same("after the insert")
			if _, err := eng.RunIncrementalCtx(ctx, map[string]map[int]bool{rel.Schema.Name: {nt.TID: true}}); err != nil {
				t.Fatal(err)
			}
			same("after the delta's chase")
		})
	}
}
