package chase_test

import (
	"testing"

	"github.com/rockclean/rock/internal/baselines"
	"github.com/rockclean/rock/internal/chase"
	"github.com/rockclean/rock/internal/data"
	"github.com/rockclean/rock/internal/must"
	"github.com/rockclean/rock/internal/predicate"
	"github.com/rockclean/rock/internal/ree"
	"github.com/rockclean/rock/internal/truth"
	"github.com/rockclean/rock/internal/workload"
)

// TestJournalReplaysToTheEngineTruth: the fix set's journal is the whole
// record of what a chase changed — Γ's clone plus a replay of every op
// the engine's U recorded is byte-identical to U. Run over the three
// applications with and without a user oracle, the Scale workload, the
// two TD-conflict inputs that rebuild an order and one entity separation;
// across them every op kind occurs.
func TestJournalReplaysToTheEngineTruth(t *testing.T) {
	kinds := make(map[truth.OpKind]int)
	check := func(t *testing.T, env *predicate.Env, rules []*ree.Rule, gamma *truth.FixSet, opts chase.Options) {
		t.Helper()
		eng := chase.New(env, rules, gamma, opts)
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		u := eng.Truth()
		ops := u.OpsSince(0)
		if len(ops) == 0 {
			t.Fatal("the chase recorded no op")
		}
		replica := gamma.Clone()
		if err := replica.Replay(ops); err != nil {
			t.Fatal(err)
		}
		if got, want := replica.Snapshot(), u.Snapshot(); got != want {
			t.Fatalf("Γ + replay of %d ops differs from the engine's fix set (%d vs %d bytes)", len(ops), len(got), len(want))
		}
		for _, op := range ops {
			kinds[op.Kind]++
		}
	}

	cfg := workload.Config{N: 300, Seed: 7}
	for _, app := range []struct {
		name string
		mk   func(workload.Config) *workload.Dataset
	}{{"bank", workload.Bank}, {"logistics", workload.Logistics}, {"sales", workload.Sales}} {
		for _, oracle := range []bool{false, true} {
			name := app.name + "-no-oracle"
			if oracle {
				name = app.name + "-oracle"
			}
			t.Run(name, func(t *testing.T) {
				bench := baselines.NewBench(app.mk(cfg), 4)
				opts := chase.DefaultOptions()
				opts.EIDRefs = bench.DS.EIDRefs
				if oracle {
					opts.Oracle = bench.GoldOracle()
				}
				check(t, bench.Env, bench.Rules, bench.DS.Gamma, opts)
			})
		}
	}
	t.Run("scale", func(t *testing.T) {
		ds := workload.Scale(workload.Config{N: 20000, Seed: 77})
		opts := chase.DefaultOptions()
		opts.UseBlocking = false
		opts.Predication = false
		check(t, predicate.NewEnv(ds.DB), ds.Rules, ds.Gamma, opts)
	})
	for _, in := range chase.TDConflictInputs(t) {
		t.Run(in.Name, func(t *testing.T) {
			check(t, in.Env, in.Rules, truth.NewFixSet(), chase.DefaultOptions())
		})
	}
	// No application rule separates entities; one that does.
	t.Run("separate", func(t *testing.T) {
		rel := data.NewRelation(must.Schema("Person",
			data.Attribute{Name: "name", Type: data.TString},
			data.Attribute{Name: "status", Type: data.TString}))
		rel.Insert("p1", data.S("Ann"), data.S("single"))
		rel.Insert("p2", data.S("Ann"), data.S("married"))
		db := data.NewDatabase()
		db.Add(rel)
		r := must.Rule("Person(t) ^ Person(s) ^ t.status = 'single' ^ s.status = 'married' -> t.eid != s.eid", db)
		r.ID = "sep"
		check(t, predicate.NewEnv(db), []*ree.Rule{r}, truth.NewFixSet(), chase.DefaultOptions())
	})

	t.Logf("ops by kind: %v", kinds)
	for k := truth.OpMergeEIDs; k <= truth.OpReplaceOrder; k++ {
		if kinds[k] == 0 {
			t.Errorf("no input recorded an op of kind %d", k)
		}
	}
}
