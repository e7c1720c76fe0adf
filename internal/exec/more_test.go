package exec

import (
	"testing"

	"github.com/rockclean/rock/internal/data"
	"github.com/rockclean/rock/internal/kg"
	"github.com/rockclean/rock/internal/ml"
	"github.com/rockclean/rock/internal/must"
	"github.com/rockclean/rock/internal/predicate"
)

func TestExecutorVertexAtoms(t *testing.T) {
	schema := must.Schema("Store",
		data.Attribute{Name: "name", Type: data.TString},
		data.Attribute{Name: "location", Type: data.TString},
	)
	rel := data.NewRelation(schema)
	rel.Insert("s1", data.S("Huawei Flagship"), data.Null(data.TString))
	rel.Insert("s2", data.S("Something Unrelated Entirely"), data.Null(data.TString))
	db := data.NewDatabase()
	db.Add(rel)
	env := predicate.NewEnv(db)
	g := kg.New("Wiki")
	hv := g.AddVertex("Huawei Flagship")
	bj := g.AddVertex("Beijing")
	must.Edge(g, hv, "LocationAt", bj)
	env.Graphs["Wiki"] = g
	env.Models.Register(ml.NewHERMatcher("Store", g, schema, 0.6, "name"))
	env.PathM = ml.NewPathMatcher(g, 0.3)

	r := must.Rule("Store(t) ^ vertex(x, Wiki) ^ HER(t, x) ^ match(t.location, x.(LocationAt)) -> t.location = val(x.(LocationAt))", db)
	e := New(env)
	matches := 0
	st, err := e.Run(r, Options{}, func(h *predicate.Valuation) bool {
		matches++
		// The only X-satisfying valuation binds s1 to the Huawei vertex.
		if h.Tuples[0].EID != "s1" {
			t.Errorf("wrong tuple bound: %s", h.Tuples[0].EID)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if matches != 1 {
		t.Errorf("matches=%d want 1 (stats %+v)", matches, st)
	}
}

func TestExecutorThreeVariableProbeJoin(t *testing.T) {
	schema := must.Schema("R",
		data.Attribute{Name: "k", Type: data.TString},
		data.Attribute{Name: "v", Type: data.TString},
	)
	rel := data.NewRelation(schema)
	for i := 0; i < 30; i++ {
		key := "k" + string(rune('a'+i%3))
		rel.Insert("e", data.S(key), data.S("v"+string(rune('a'+i%5))))
	}
	db := data.NewDatabase()
	db.Add(rel)
	env := predicate.NewEnv(db)
	// Three variables chained by equality: the second and third bind via
	// probe joins on the hash index rather than full scans.
	r := must.Rule("R(a) ^ R(b) ^ R(c) ^ a.k = b.k ^ b.k = c.k -> a.v = c.v", db)
	e := New(env)
	st, err := e.Run(r, Options{}, func(h *predicate.Valuation) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	// Reference count: per key group of 10, ordered triples of distinct
	// tuples = 10*9*8 = 720; three groups = 2160.
	if st.Valuations != 2160 {
		t.Errorf("valuations=%d want 2160", st.Valuations)
	}
	// Probe joins must beat the naive 30*29*28 ≈ 24k enumeration budget.
	if st.Enumerated > 10000 {
		t.Errorf("probe join missing: enumerated %d", st.Enumerated)
	}
}

func TestExecutorCrossRelationBlocking(t *testing.T) {
	left := data.NewRelation(must.Schema("L", data.Attribute{Name: "name", Type: data.TString}))
	right := data.NewRelation(must.Schema("R", data.Attribute{Name: "title", Type: data.TString}))
	for i := 0; i < 20; i++ {
		s := []string{"zebra telescope deluxe", "quantum harvest engine", "maple syrup dispenser", "arctic penguin statue"}[i%4]
		left.Insert("l", data.S(s))
		right.Insert("r", data.S(s+" item"))
	}
	db := data.NewDatabase()
	db.Add(left)
	db.Add(right)
	env := predicate.NewEnv(db)
	env.Models.Register(ml.NewSimilarityMatcher("M_ER", 0.8))
	r := must.Rule("L(t) ^ R(s) ^ M_ER(t[name], s[title]) -> t.eid = s.eid", db)
	e := New(env)
	blocked, err := e.Run(r, Options{UseBlocking: true}, func(h *predicate.Valuation) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	naive, err := e.Run(r, Options{}, func(h *predicate.Valuation) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if blocked.MLCalls >= naive.MLCalls {
		t.Errorf("cross-relation blocking must cut ML calls: %d vs %d", blocked.MLCalls, naive.MLCalls)
	}
	if blocked.Valuations < naive.Valuations*9/10 {
		t.Errorf("blocking lost matches: %d vs %d", blocked.Valuations, naive.Valuations)
	}
}
