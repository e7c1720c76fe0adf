package exec

import (
	"fmt"
	"slices"
	"testing"

	"github.com/rockclean/rock/internal/data"
	"github.com/rockclean/rock/internal/kg"
	"github.com/rockclean/rock/internal/ml"
	"github.com/rockclean/rock/internal/must"
	"github.com/rockclean/rock/internal/predicate"
	"github.com/rockclean/rock/internal/ree"
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
	// tuples = 10*9*8 = 720; three groups = 2160. A group holds each v
	// twice, so in 10*1*8 = 80 of its triples a.v = c.v already holds,
	// and Run emits only the other 2160 - 3*80 = 1920.
	if st.Valuations != 1920 {
		t.Errorf("valuations=%d want 1920", st.Valuations)
	}
	// Probe joins must beat the naive 30*29*28 ≈ 24k enumeration budget.
	if st.Enumerated > 10000 {
		t.Errorf("probe join missing: enumerated %d", st.Enumerated)
	}
}

// TestBlockedPairsFollowPushdown: an LSH-blocked cross-relation rule
// with a constant filter on each side emits, in order, exactly the
// valuations of the same rule without the filters that pass them — with
// no dirty filter, under a dirty set, and with a tuple the view moves
// into the filter. The model accepts every pair, so the valuations are
// the blocked candidate pairs themselves and the stats follow from
// their count.
func TestBlockedPairsFollowPushdown(t *testing.T) {
	names := []string{"zebra telescope deluxe", "quantum harvest engine", "maple syrup dispenser", "arctic penguin statue"}
	left := data.NewRelation(must.Schema("L", data.Attribute{Name: "name", Type: data.TString},
		data.Attribute{Name: "grp", Type: data.TString}))
	right := data.NewRelation(must.Schema("R", data.Attribute{Name: "title", Type: data.TString},
		data.Attribute{Name: "grp", Type: data.TString}))
	for i := 0; i < 24; i++ {
		left.Insert("l", data.S(names[i%4]), data.S([]string{"a", "b", "c"}[i%3]))
		right.Insert("r", data.S(names[(i/2)%4]+" item"), data.S([]string{"a", "b"}[i%2]))
	}
	db := data.NewDatabase()
	db.Add(left)
	db.Add(right)
	env := predicate.NewEnv(db)
	env.Models.Register(ml.NewSimilarityMatcher("M_ER", 0))
	filtered := must.Rule("L(t) ^ R(s) ^ t.grp = 'a' ^ s.grp = 'b' ^ M_ER(t[name], s[title]) -> t.eid = s.eid", db)
	all := must.Rule("L(t) ^ R(s) ^ M_ER(t[name], s[title]) -> t.eid = s.eid", db)
	grp := func(rel *data.Relation, tp *data.Tuple) string {
		return env.Value(rel, tp, rel.Schema.Index("grp")).String()
	}
	run := func(r *ree.Rule, dirty map[string]map[int]bool) ([][2]int, Stats) {
		var got [][2]int
		st, err := New(env).Run(r, Options{UseBlocking: true, Dirty: dirty}, func(h *predicate.Valuation) bool {
			got = append(got, [2]int{h.Tuples[0].TID, h.Tuples[1].TID})
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		return got, st
	}
	// L tuple 1 is raw group "b"; the view moves it into "a".
	moved := left.Tuples[1]
	for _, tc := range []struct {
		name   string
		dirty  map[string]map[int]bool
		shadow bool
	}{
		{"no dirty filter", nil, false},
		{"dirty set", map[string]map[int]bool{"L": {0: true, 3: true, 9: true}, "R": {5: true, 7: true}}, false},
		{"shadowed tuple", nil, true},
	} {
		env.View = nil
		if tc.shadow {
			env.View = newTestView(func(rel string, tp *data.Tuple, attr string) data.Value {
				if rel == "L" && tp.TID == moved.TID && attr == "grp" {
					return data.S("a")
				}
				return rawValue(env, rel, tp, attr)
			}, map[string]map[int]bool{"L": {moved.TID: true}})
		}
		unfiltered, _ := run(all, tc.dirty)
		var want [][2]int
		for _, pr := range unfiltered {
			if grp(left, left.Get(pr[0])) == "a" && grp(right, right.Get(pr[1])) == "b" {
				want = append(want, pr)
			}
		}
		got, st := run(filtered, tc.dirty)
		if len(want) == 0 || len(want) == len(unfiltered) {
			t.Fatalf("%s: the filters keep %d of %d pairs; the test needs them to drop some and keep some", tc.name, len(want), len(unfiltered))
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: blocked pairs\n got %v\nwant %v", tc.name, got, want)
		}
		if n := len(want); st != (Stats{Valuations: n, Enumerated: 2 * n, MLCalls: n}) {
			t.Errorf("%s: stats %+v, want %d valuations, %d enumerated, %d ML calls", tc.name, st, n, 2*n, n)
		}
		if tc.shadow && !slices.ContainsFunc(got, func(pr [2]int) bool { return pr[0] == moved.TID }) {
			t.Errorf("%s: the tuple the view moves into the filter never pairs", tc.name)
		}
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
