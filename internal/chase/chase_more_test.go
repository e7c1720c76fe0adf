package chase

import (
	"fmt"
	"testing"

	"github.com/rockclean/rock/internal/data"
	"github.com/rockclean/rock/internal/kg"
	"github.com/rockclean/rock/internal/ml"
	"github.com/rockclean/rock/internal/must"
	"github.com/rockclean/rock/internal/predicate"
	"github.com/rockclean/rock/internal/ree"
	"github.com/rockclean/rock/internal/truth"
)

func TestEIDRefConsequenceMergesReferencedEntities(t *testing.T) {
	schema := must.Schema("Trans",
		data.Attribute{Name: "pid", Type: data.TString},
		data.Attribute{Name: "code", Type: data.TString},
	)
	rel := data.NewRelation(schema)
	rel.Insert("t1", data.S("p1"), data.S("X41"))
	rel.Insert("t2", data.S("p2"), data.S("X41"))
	db := data.NewDatabase()
	db.Add(rel)
	env := predicate.NewEnv(db)
	r := must.Rule("Trans(t) ^ Trans(s) ^ t.code = s.code -> t.pid = s.pid", db)
	r.ID = "phi1"
	opts := DefaultOptions()
	opts.EIDRefs = map[string]bool{"Trans.pid": true}
	eng := New(env, []*ree.Rule{r}, truth.NewFixSet(), opts)
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !eng.Truth().SameEntity("p1", "p2") {
		t.Error("pid equation must merge the referenced person entities")
	}
	// Neither pid attribute value was overwritten.
	if v, _ := rel.Value(rel.Tuples[0].TID, "pid"); v.Str() != "p1" {
		t.Error("pid values must not be rewritten")
	}
	if _, ok := eng.Truth().Cell("Trans", "t1", "pid"); ok {
		t.Error("no cell fix should be recorded for an entity-ref equation")
	}
}

func TestKValConsequenceExtractsFromGraph(t *testing.T) {
	schema := must.Schema("Store",
		data.Attribute{Name: "name", Type: data.TString},
		data.Attribute{Name: "location", Type: data.TString},
	)
	rel := data.NewRelation(schema)
	tp := rel.Insert("s2", data.S("Apple Taobao Flagship"), data.Null(data.TString))
	db := data.NewDatabase()
	db.Add(rel)
	env := predicate.NewEnv(db)
	g := kg.New("Wiki")
	apple := g.AddVertex("Apple Taobao Flagship")
	beijing := g.AddVertex("Beijing")
	must.Edge(g, apple, "LocationAt", beijing)
	env.Graphs["Wiki"] = g
	env.Models.Register(ml.NewHERMatcher("Store", g, schema, 0.6, "name"))
	env.PathM = ml.NewPathMatcher(g, 0.3)

	r := must.Rule("Store(t) ^ vertex(x, Wiki) ^ HER(t, x) ^ match(t.location, x.(LocationAt)) ^ null(t.location) -> t.location = val(x.(LocationAt))", db)
	r.ID = "phi7"
	eng := New(env, []*ree.Rule{r}, truth.NewFixSet(), DefaultOptions())
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if v, ok := eng.Truth().Cell("Store", tp.EID, "location"); !ok || v.Str() != "Beijing" {
		t.Errorf("KG extraction failed: %v %v", v, ok)
	}
}

func TestKPredictConsequenceUsesValuePredictor(t *testing.T) {
	schema := must.Schema("Trans",
		data.Attribute{Name: "com", Type: data.TString},
		data.Attribute{Name: "price", Type: data.TFloat},
	)
	rel := data.NewRelation(schema)
	for i := 0; i < 8; i++ {
		rel.Insert("e", data.S("Mate X2"), data.F(5200))
	}
	probe := rel.Insert("t13", data.S("Mate X2"), data.Null(data.TFloat))
	db := data.NewDatabase()
	db.Add(rel)
	env := predicate.NewEnv(db)
	mc := ml.NewCorrelationModel("M_c", schema)
	mc.Train(rel.Tuples)
	env.Pred["M_d"] = ml.NewValuePredictor("M_d", mc, rel.Tuples)

	r := must.Rule("Trans(t) ^ null(t.price) -> t.price = M_d(t, price)", db)
	r.ID = "phi8"
	eng := New(env, []*ree.Rule{r}, truth.NewFixSet(), DefaultOptions())
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if v, ok := eng.Truth().Cell("Trans", probe.EID, "price"); !ok || v.Float() != 5200 {
		t.Errorf("M_d imputation failed: %v %v", v, ok)
	}
}

// tdRetractInput orders two tuples both ways on R.v, the wrong way first
// (rule IDs sort "a-bad" before "b-good"), under a ranker preferring
// ascending v: resolving the conflict retracts an accepted edge.
func tdRetractInput() (env *predicate.Env, rules []*ree.Rule, lo, hi *data.Tuple) {
	schema := must.Schema("R", data.Attribute{Name: "v", Type: data.TFloat},
		data.Attribute{Name: "tag", Type: data.TString})
	rel := data.NewRelation(schema)
	lo = rel.Insert("a", data.F(1), data.S("lo"))
	hi = rel.Insert("b", data.F(2), data.S("hi"))
	db := data.NewDatabase()
	db.Add(rel)
	env = predicate.NewEnv(db)
	// Ranker: higher v is newer.
	env.Ranker = &funcRanker{}

	rBad := must.Rule("R(t) ^ R(s) ^ t.tag = 'hi' ^ s.tag = 'lo' -> t <[v] s", db)
	rBad.ID = "a-bad"
	rGood := must.Rule("R(t) ^ R(s) ^ t.tag = 'lo' ^ s.tag = 'hi' -> t <[v] s", db)
	rGood.ID = "b-good"
	return env, []*ree.Rule{rBad, rGood}, lo, hi
}

func TestTDConflictRetractsLosingEdge(t *testing.T) {
	env, rules, lo, hi := tdRetractInput()
	eng := New(env, rules, truth.NewFixSet(), DefaultOptions())
	rep, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	o := eng.Truth().OrderIfAny("R", "v")
	if o == nil || !o.Less(lo.TID, hi.TID) {
		t.Errorf("ranker-backed direction must win (resolvedTD=%d retracted=%d)", rep.ResolvedTD, rep.RetractedTD)
	}
	if o.Less(hi.TID, lo.TID) {
		t.Error("losing direction must be retracted")
	}
	if rep.RetractedTD == 0 {
		t.Error("a retraction must be recorded")
	}
}

// TestTDRetractionKeepsGammaOrders: a ranker-won order conflict with an
// edge of Γ must not rebuild the order from the engine's own fixes alone.
// Γ orders R.a as 0 ≺ 1 and 2 ≺ 3; the rule deduces 1 ⪯ 0, which the
// ranker prefers, but Γ's 0 ≺ 1 entails the opposite, so the fix loses
// and both Γ edges stay.
func TestTDRetractionKeepsGammaOrders(t *testing.T) {
	schema := must.Schema("R", data.Attribute{Name: "k", Type: data.TString},
		data.Attribute{Name: "a", Type: data.TFloat})
	rel := data.NewRelation(schema)
	var tids []int
	for i, k := range []string{"old", "new", "x", "x"} {
		tids = append(tids, rel.Insert(fmt.Sprintf("e%d", i), data.S(k), data.F(float64(i))).TID)
	}
	db := data.NewDatabase()
	db.Add(rel)
	env := predicate.NewEnv(db)
	env.Ranker = prefersRanker{older: tids[1], newer: tids[0]}
	gamma := truth.NewFixSet()
	gamma.AddOrder("R", "a", tids[0], tids[1], true)
	gamma.AddOrder("R", "a", tids[2], tids[3], true)
	r := must.Rule("R(t) ^ R(s) ^ t.k = 'new' ^ s.k = 'old' -> t <=[a] s", db)
	r.ID = "td"
	eng := New(env, []*ree.Rule{r}, gamma, DefaultOptions())
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	o := eng.Truth().OrderIfAny("R", "a")
	if o == nil || !o.Less(tids[0], tids[1]) || !o.Less(tids[2], tids[3]) || o.Leq(tids[1], tids[0]) {
		var pairs [][2]int
		if o != nil {
			pairs = o.Pairs()
		}
		t.Fatalf("order pairs %v: Γ's 0 ≺ 1 and 2 ≺ 3 must survive and 1 ⪯ 0 lose", pairs)
	}
}

// prefersRanker is confident that older precedes newer, and in nothing
// else.
type prefersRanker struct{ older, newer int }

func (prefersRanker) Name() string { return "M_rank" }
func (r prefersRanker) RankLeq(rel string, older, newer *data.Tuple, attr string) float64 {
	if older.TID == r.older && newer.TID == r.newer {
		return 0.9
	}
	return 0.1
}

// funcRanker prefers ascending v.
type funcRanker struct{}

func (funcRanker) Name() string { return "M_rank" }
func (funcRanker) RankLeq(rel string, older, newer *data.Tuple, attr string) float64 {
	if older.Values[0].Float() <= newer.Values[0].Float() {
		return 0.9
	}
	return 0.1
}

func TestUnresolvedWithoutOracleOrModels(t *testing.T) {
	// Two tuples disagree 1-1 with no models, no gamma, no oracle: the
	// certain-fix discipline refuses to guess.
	schema := must.Schema("R", data.Attribute{Name: "k", Type: data.TString},
		data.Attribute{Name: "v", Type: data.TString})
	rel := data.NewRelation(schema)
	a := rel.Insert("x", data.S("key"), data.S("one"))
	b := rel.Insert("y", data.S("key"), data.S("two"))
	db := data.NewDatabase()
	db.Add(rel)
	env := predicate.NewEnv(db)
	r := must.Rule("R(t) ^ R(s) ^ t.k = s.k -> t.v = s.v", db)
	r.ID = "cr"
	eng := New(env, []*ree.Rule{r}, truth.NewFixSet(), DefaultOptions())
	rep, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Unresolved) == 0 {
		t.Error("ambiguous pair must be reported, not guessed")
	}
	if _, ok := eng.Truth().Cell("R", a.EID, "v"); ok {
		t.Error("no fix may be applied to either side")
	}
	if _, ok := eng.Truth().Cell("R", b.EID, "v"); ok {
		t.Error("no fix may be applied to either side")
	}
}

// TestChaseIdempotent: re-running the chase over an already-converged fix
// set deduces nothing new (the fixpoint is stable).
func TestChaseIdempotent(t *testing.T) {
	env, rel := personEnv(t)
	rel.Insert("a", data.S("X"), data.S("Y"), data.S("addr"), data.S("single"), data.Null(data.TString))
	rel.Insert("b", data.S("X"), data.S("Y"), data.Null(data.TString), data.S("single"), data.Null(data.TString))
	r := must.Rule("Person(t) ^ Person(s) ^ t.LN = s.LN ^ t.FN = s.FN ^ null(s.home) -> s.home = t.home", env.DB)
	r.ID = "mi"
	eng := New(env, []*ree.Rule{r}, truth.NewFixSet(), DefaultOptions())
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	snap1 := eng.Truth().Snapshot()
	applied1 := len(eng.Report().Applied)
	// Second engine seeded with the first's result.
	eng2 := New(env, []*ree.Rule{r}, eng.Truth(), DefaultOptions())
	if _, err := eng2.Run(); err != nil {
		t.Fatal(err)
	}
	if len(eng2.Report().Applied) != 0 {
		t.Errorf("re-chase applied %d fixes on a converged fix set", len(eng2.Report().Applied))
	}
	if eng2.Truth().Snapshot() != snap1 {
		t.Error("fixpoint not stable under re-chase")
	}
	_ = applied1
}

func TestFixStrings(t *testing.T) {
	fixes := []Fix{
		{Kind: FixMerge, EID1: "a", EID2: "b", RuleID: "r"},
		{Kind: FixSeparate, EID1: "a", EID2: "b", RuleID: "r"},
		{Kind: FixCell, Rel: "R", Attr: "x", EID1: "a", Value: data.S("v"), RuleID: "r"},
		{Kind: FixOrder, Rel: "R", Attr: "x", TID1: 1, TID2: 2, RuleID: "r"},
		{Kind: FixOrder, Rel: "R", Attr: "x", TID1: 1, TID2: 2, Strict: true, RuleID: "r"},
	}
	for _, f := range fixes {
		if s := f.String(); s == "" || s == "?" {
			t.Errorf("fix renders poorly: %q", s)
		}
	}
}

// TestOracleConfirmsExisting: when the user confirms the already-validated
// value, the conflicting new fix is dropped and nothing changes.
func TestOracleConfirmsExisting(t *testing.T) {
	env, rel := personEnv(t)
	rel.Insert("p1", data.S("A"), data.S("B"), data.S("keep"), data.S("s"), data.Null(data.TString))
	r1 := must.Rule("Person(t) ^ t.LN = 'A' -> t.home = 'keep'", env.DB)
	r1.ID = "a1"
	r2 := must.Rule("Person(t) ^ t.FN = 'B' -> t.home = 'other'", env.DB)
	r2.ID = "a2"
	opts := DefaultOptions()
	opts.Oracle = func(relName, eid, attr string, cands []data.Value) (data.Value, bool) {
		return data.S("keep"), true
	}
	eng := New(env, []*ree.Rule{r1, r2}, truth.NewFixSet(), opts)
	rep, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := eng.Truth().Cell("Person", "p1", "home"); v.Str() != "keep" {
		t.Errorf("confirmed value lost: %v", v)
	}
	if rep.OracleCalls == 0 {
		t.Error("oracle must have been consulted")
	}
}

// TestOracleOverridesExisting: the user supplies a third value neither fix
// proposed; it replaces the validated one.
func TestOracleOverridesExisting(t *testing.T) {
	env, rel := personEnv(t)
	rel.Insert("p1", data.S("A"), data.S("B"), data.S("h"), data.S("s"), data.Null(data.TString))
	r1 := must.Rule("Person(t) ^ t.LN = 'A' -> t.status = 'x'", env.DB)
	r1.ID = "a1"
	r2 := must.Rule("Person(t) ^ t.FN = 'B' -> t.status = 'y'", env.DB)
	r2.ID = "a2"
	opts := DefaultOptions()
	opts.Oracle = func(relName, eid, attr string, cands []data.Value) (data.Value, bool) {
		return data.S("expert-answer"), true
	}
	eng := New(env, []*ree.Rule{r1, r2}, truth.NewFixSet(), opts)
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if v, _ := eng.Truth().Cell("Person", "p1", "status"); v.Str() != "expert-answer" {
		t.Errorf("oracle override lost: %v", v)
	}
}

// TestOracleAbstains: an oracle that declines leaves the conflict
// unresolved.
func TestOracleAbstains(t *testing.T) {
	env, rel := personEnv(t)
	rel.Insert("p1", data.S("A"), data.S("B"), data.S("h"), data.S("s"), data.Null(data.TString))
	r1 := must.Rule("Person(t) ^ t.LN = 'A' -> t.status = 'x'", env.DB)
	r1.ID = "a1"
	r2 := must.Rule("Person(t) ^ t.FN = 'B' -> t.status = 'y'", env.DB)
	r2.ID = "a2"
	opts := DefaultOptions()
	opts.Oracle = func(relName, eid, attr string, cands []data.Value) (data.Value, bool) {
		return data.Value{}, false
	}
	eng := New(env, []*ree.Rule{r1, r2}, truth.NewFixSet(), opts)
	rep, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Unresolved) == 0 {
		t.Error("declined conflict must be reported")
	}
}

// TestValuePairValidatedSideWins: when one side is backed by Γ, no model
// or user is needed.
func TestValuePairValidatedSideWins(t *testing.T) {
	env, rel := personEnv(t)
	rel.Insert("p1", data.S("A"), data.S("B"), data.S("right"), data.S("s"), data.Null(data.TString))
	rel.Insert("p2", data.S("A"), data.S("B"), data.S("wrong"), data.S("s"), data.Null(data.TString))
	gamma := truth.NewFixSet()
	gamma.SetCell("Person", "p1", "home", data.S("right"))
	r := must.Rule("Person(t) ^ Person(s) ^ t.LN = s.LN ^ t.FN = s.FN -> t.home = s.home", env.DB)
	r.ID = "cr"
	eng := New(env, []*ree.Rule{r}, gamma, DefaultOptions())
	rep, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := eng.Truth().Cell("Person", "p2", "home"); !ok || v.Str() != "right" {
		t.Errorf("validated side must win: %v %v", v, ok)
	}
	if rep.OracleCalls != 0 {
		t.Error("no user consultation needed when Γ decides")
	}
}
