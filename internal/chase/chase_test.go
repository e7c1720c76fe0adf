package chase

import (
	"math/rand"
	"testing"

	"github.com/rockclean/rock/internal/data"
	"github.com/rockclean/rock/internal/ml"
	"github.com/rockclean/rock/internal/must"
	"github.com/rockclean/rock/internal/predicate"
	"github.com/rockclean/rock/internal/ree"
	"github.com/rockclean/rock/internal/truth"
)

// personEnv builds a small Person relation for chase tests.
func personEnv(t *testing.T) (*predicate.Env, *data.Relation) {
	t.Helper()
	schema := must.Schema("Person",
		data.Attribute{Name: "LN", Type: data.TString},
		data.Attribute{Name: "FN", Type: data.TString},
		data.Attribute{Name: "home", Type: data.TString},
		data.Attribute{Name: "status", Type: data.TString},
		data.Attribute{Name: "spouse", Type: data.TString},
	)
	rel := data.NewRelation(schema)
	db := data.NewDatabase()
	db.Add(rel)
	return predicate.NewEnv(db), rel
}

func TestChaseCRFix(t *testing.T) {
	env, rel := personEnv(t)
	// Two tuples of the same entity with different homes; a rule says
	// same-LN+FN tuples share homes. The validated side propagates.
	rel.Insert("p1", data.S("Jones"), data.S("Christine"), data.S("5 Beijing West Road"), data.S("single"), data.Null(data.TString))
	rel.Insert("p2", data.S("Jones"), data.S("Christine"), data.S("5 West Road"), data.S("single"), data.Null(data.TString))
	gamma := truth.NewFixSet()
	gamma.SetCell("Person", "p1", "home", data.S("5 Beijing West Road")) // master data
	r := must.Rule("Person(t) ^ Person(s) ^ t.LN = s.LN ^ t.FN = s.FN -> t.home = s.home", env.DB)
	r.ID = "r1"
	eng := New(env, []*ree.Rule{r}, gamma, DefaultOptions())
	rep, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := eng.Truth().Cell("Person", "p2", "home"); !ok || v.Str() != "5 Beijing West Road" {
		t.Errorf("home not propagated: %v %v (report %+v)", v, ok, rep)
	}
	if n := eng.Materialize(); n != 1 {
		t.Errorf("materialized %d cells, want 1", n)
	}
	if v, _ := rel.Value(rel.Tuples[1].TID, "home"); v.Str() != "5 Beijing West Road" {
		t.Error("materialize did not write back")
	}
}

func TestChaseERMerge(t *testing.T) {
	env, rel := personEnv(t)
	rel.Insert("p3", data.S("Smith"), data.S("George"), data.S("12 Beijing Road"), data.S("married"), data.S("p2"))
	rel.Insert("p4", data.S("Smith"), data.S("George"), data.S("12 Beijing Road"), data.S("married"), data.S("p2"))
	r := must.Rule("Person(t) ^ Person(s) ^ t.LN = s.LN ^ t.FN = s.FN ^ t.home = s.home -> t.eid = s.eid", env.DB)
	r.ID = "er1"
	eng := New(env, []*ree.Rule{r}, truth.NewFixSet(), DefaultOptions())
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !eng.Truth().SameEntity("p3", "p4") {
		t.Error("entities not merged")
	}
}

// TestChaseInteractions reproduces the paper's Example 7 end-to-end: ER
// helps CR, CR helps TD, TD helps MI, MI helps ER — all in one unified
// chase.
func TestChaseInteractions(t *testing.T) {
	env, rel := personEnv(t)
	// Mirror of Table 1 (simplified): t1=p1 Jones Christine; t2,t3=p2 Smith
	// Christine (t3 newer home); t4=p3 Smith George; t5=p4 Smith George
	// with nulls.
	rel.Insert("p2", data.S("Smith"), data.S("Christine"), data.S("5 West Road"), data.S("single"), data.S("p3"))
	t3 := rel.Insert("p2", data.S("Smith"), data.S("Christine"), data.S("12 Beijing Road"), data.S("married"), data.S("p4"))
	rel.Insert("p3", data.S("Smith"), data.S("George"), data.S("12 Beijing Road"), data.S("married"), data.S("p2"))
	rel.Insert("p4", data.S("Smith"), data.S("George"), data.Null(data.TString), data.Null(data.TString), data.Null(data.TString))

	rules := []*ree.Rule{
		// ϕ4: TD — status monotone single -> married.
		must.Rule("Person(t) ^ Person(s) ^ t.status = 'single' ^ s.status = 'married' -> t <=[status] s", env.DB),
		// ϕ5: TD comonotone: status order implies home order (strict form
		// so the latest home is well-defined).
		must.Rule("Person(t) ^ Person(s) ^ t <=[status] s -> t <=[home] s", env.DB),
		// ϕ14: TD helps MI — a spouse's latest home fills the null.
		must.Rule("Person(u) ^ Person(t) ^ Person(s) ^ u.LN = t.LN ^ u.FN = t.FN ^ t.LN = s.LN ^ u <=[home] t ^ t.status = 'married' ^ null(s.home) -> s.home = t.home", env.DB),
		// ϕ15: MI helps ER — same name + home identifies.
		must.Rule("Person(t) ^ Person(s) ^ t.LN = s.LN ^ t.FN = s.FN ^ t.home = s.home -> t.eid = s.eid", env.DB),
	}
	for i, r := range rules {
		r.ID = []string{"phi4", "phi5", "phi14", "phi15"}[i]
	}

	eng := New(env, rules, truth.NewFixSet(), DefaultOptions())
	rep, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	// TD: the married tuple's home is more current.
	if o := eng.Truth().OrderIfAny("Person", "home"); o == nil || !o.Leq(rel.Tuples[0].TID, t3.TID) {
		t.Error("home order not deduced from status order")
	}
	// MI: George p4's home imputed from the newer address.
	if v, ok := eng.Truth().Cell("Person", "p4", "home"); !ok || v.Str() != "12 Beijing Road" {
		t.Errorf("spouse home not imputed: %v %v; fixes: %v", v, ok, rep.Applied)
	}
	// ER: p3 and p4 identified after MI.
	if !eng.Truth().SameEntity("p3", "p4") {
		t.Errorf("p3/p4 not identified after imputation; fixes: %v", rep.Applied)
	}
	if rep.Rounds < 2 {
		t.Errorf("interactions require multiple rounds, got %d", rep.Rounds)
	}
}

// TestChurchRosser verifies that the chase converges to the same fix set
// regardless of rule order.
func TestChurchRosser(t *testing.T) {
	build := func(order []int) string {
		env, rel := personEnv(t)
		rel.Insert("a", data.S("X"), data.S("Y"), data.S("addr1"), data.S("single"), data.Null(data.TString))
		rel.Insert("b", data.S("X"), data.S("Y"), data.S("addr1"), data.S("married"), data.Null(data.TString))
		rel.Insert("c", data.S("X"), data.S("Y"), data.Null(data.TString), data.S("married"), data.Null(data.TString))
		ruleSrc := []string{
			"Person(t) ^ Person(s) ^ t.LN = s.LN ^ t.FN = s.FN ^ t.home = s.home -> t.eid = s.eid",
			"Person(t) ^ Person(s) ^ t.status = 'single' ^ s.status = 'married' -> t <=[status] s",
			"Person(t) ^ Person(s) ^ t.LN = s.LN ^ null(s.home) -> s.home = t.home",
		}
		var rules []*ree.Rule
		for _, i := range order {
			r := must.Rule(ruleSrc[i], env.DB)
			r.ID = []string{"er", "td", "mi"}[i]
			rules = append(rules, r)
		}
		eng := New(env, rules, truth.NewFixSet(), DefaultOptions())
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return eng.Truth().Snapshot()
	}
	base := build([]int{0, 1, 2})
	perms := [][]int{{0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for _, p := range perms {
		if got := build(p); got != base {
			t.Errorf("Church-Rosser violated for order %v:\n base=%s\n got=%s", p, base, got)
		}
	}
}

func TestConflictResolutionMI(t *testing.T) {
	env, rel := personEnv(t)
	// Train a correlation model: Smith households live at "12 Beijing Road".
	for i := 0; i < 10; i++ {
		rel.Insert("x", data.S("Smith"), data.S("F"), data.S("12 Beijing Road"), data.S("married"), data.Null(data.TString))
	}
	probe := rel.Insert("p9", data.S("Smith"), data.S("G"), data.Null(data.TString), data.S("married"), data.Null(data.TString))
	_ = probe
	mc := ml.NewCorrelationModel("M_c", rel.Schema)
	mc.Train(rel.Tuples)
	env.Corr["M_c"] = mc
	// Two imputation rules suggest different values; argmax-Mc keeps the
	// correlated one.
	r1 := must.Rule("Person(t) ^ t.LN = 'Smith' ^ null(t.home) -> t.home = 'nowhere'", env.DB)
	r1.ID = "bad"
	r2 := must.Rule("Person(t) ^ t.status = 'married' ^ t.LN = 'Smith' ^ null(t.home) -> t.home = '12 Beijing Road'", env.DB)
	r2.ID = "good"
	eng := New(env, []*ree.Rule{r1, r2}, truth.NewFixSet(), DefaultOptions())
	rep, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := eng.Truth().Cell("Person", "p9", "home"); !ok || v.Str() != "12 Beijing Road" {
		t.Errorf("MI conflict resolved wrong: %v (resolved=%d)", v, rep.ResolvedMI)
	}
	if rep.ResolvedMI == 0 {
		t.Error("expected an MI conflict resolution")
	}
}

// tdResolutionInput has two TD rules ordering two Person tuples both ways
// on status, and a trained ranker favouring the status order.
func tdResolutionInput(t *testing.T) (env *predicate.Env, rules []*ree.Rule, a, b *data.Tuple) {
	env, rel := personEnv(t)
	a = rel.Insert("a", data.S("X"), data.S("F"), data.S("h1"), data.S("single"), data.Null(data.TString))
	b = rel.Insert("b", data.S("X"), data.S("F"), data.S("h2"), data.S("married"), data.Null(data.TString))
	// Conflicting TD rules: one orders by status (a before b), the other
	// claims the reverse. A ranker favouring the status order decides.
	r1 := must.Rule("Person(t) ^ Person(s) ^ t.status = 'single' ^ s.status = 'married' -> t <[status] s", env.DB)
	r1.ID = "td-good"
	r2 := must.Rule("Person(t) ^ Person(s) ^ t.status = 'married' ^ s.status = 'single' -> t <[status] s", env.DB)
	r2.ID = "td-bad"
	ranker := ml.NewPairRanker("M_rank", rel.Schema)
	ranker.AttrOrderHints["status"] = map[string]int{"single": 0, "married": 1}
	seed := []ml.RankedPair{{Older: a, Newer: b, Attr: "status", Leq: true}}
	ml.TrainRanker(ranker, "Person", rel.Tuples, []string{"status"}, seed, []ml.CurrencyConstraint{
		ml.NewMonotoneValueConstraint(rel.Schema, "status", []string{"single", "married"}),
	}, 2)
	env.Ranker = ranker
	return env, []*ree.Rule{r1, r2}, a, b
}

func TestConflictResolutionTD(t *testing.T) {
	env, rules, a, b := tdResolutionInput(t)
	eng := New(env, rules, truth.NewFixSet(), DefaultOptions())
	rep, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	o := eng.Truth().OrderIfAny("Person", "status")
	if o == nil || !o.Less(a.TID, b.TID) {
		t.Errorf("TD conflict resolved wrong (resolvedTD=%d)", rep.ResolvedTD)
	}
	if o.Less(b.TID, a.TID) {
		t.Error("losing direction must not survive")
	}
	if rep.ResolvedTD == 0 {
		t.Error("expected a TD conflict resolution")
	}
}

func TestUnresolvedConflictGoesToUser(t *testing.T) {
	env, rel := personEnv(t)
	rel.Insert("p1", data.S("A"), data.S("B"), data.S("h1"), data.S("s"), data.Null(data.TString))
	// Two CR rules assign different constants; no correlation model is
	// registered, so the conflict is reported, not resolved.
	r1 := must.Rule("Person(t) ^ t.LN = 'A' -> t.home = 'x'", env.DB)
	r1.ID = "c1"
	r2 := must.Rule("Person(t) ^ t.FN = 'B' -> t.home = 'y'", env.DB)
	r2.ID = "c2"
	eng := New(env, []*ree.Rule{r1, r2}, truth.NewFixSet(), DefaultOptions())
	rep, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Unresolved) == 0 {
		t.Error("expected an unresolved conflict for the user")
	}
}

func TestLazyMatchesNaive(t *testing.T) {
	run := func(lazy bool) (string, int) {
		env, rel := personEnv(t)
		rng := rand.New(rand.NewSource(5))
		homes := []string{"addr one", "addr two", "addr three", ""}
		for i := 0; i < 40; i++ {
			h := homes[rng.Intn(len(homes))]
			var hv data.Value
			if h == "" {
				hv = data.Null(data.TString)
			} else {
				hv = data.S(h)
			}
			rel.Insert(
				"e"+string(rune('a'+i%17)),
				data.S("LN"+string(rune('a'+i%5))),
				data.S("FN"+string(rune('a'+i%3))),
				hv,
				data.S([]string{"single", "married"}[i%2]),
				data.Null(data.TString),
			)
		}
		rules := []*ree.Rule{
			must.Rule("Person(t) ^ Person(s) ^ t.LN = s.LN ^ t.FN = s.FN ^ t.home = s.home -> t.eid = s.eid", env.DB),
			must.Rule("Person(t) ^ Person(s) ^ t.LN = s.LN ^ t.FN = s.FN ^ null(s.home) -> s.home = t.home", env.DB),
			must.Rule("Person(t) ^ Person(s) ^ t.status = 'single' ^ s.status = 'married' -> t <=[status] s", env.DB),
		}
		for i, r := range rules {
			r.ID = []string{"er", "mi", "td"}[i]
		}
		o := DefaultOptions()
		o.Lazy = lazy
		eng := New(env, rules, truth.NewFixSet(), o)
		rep, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return eng.Truth().Snapshot(), rep.Valuations
	}
	lazySnap, lazyVals := run(true)
	naiveSnap, naiveVals := run(false)
	if lazySnap != naiveSnap {
		t.Error("lazy activation changed the chase result")
	}
	if lazyVals > naiveVals {
		t.Errorf("lazy should not enumerate more: lazy=%d naive=%d", lazyVals, naiveVals)
	}
}

func TestMaterializeIdempotent(t *testing.T) {
	env, rel := personEnv(t)
	rel.Insert("p1", data.S("A"), data.S("B"), data.Null(data.TString), data.S("s"), data.Null(data.TString))
	r := must.Rule("Person(t) ^ null(t.home) -> t.home = 'somewhere'", env.DB)
	r.ID = "mi"
	eng := New(env, []*ree.Rule{r}, truth.NewFixSet(), DefaultOptions())
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if n := eng.Materialize(); n != 1 {
		t.Errorf("first materialize: %d", n)
	}
	if n := eng.Materialize(); n != 0 {
		t.Errorf("second materialize must be a no-op: %d", n)
	}
}
