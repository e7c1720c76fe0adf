package exec

import (
	"fmt"
	"testing"

	"github.com/rockclean/rock/internal/crystal"
	"github.com/rockclean/rock/internal/data"
	"github.com/rockclean/rock/internal/ml"
	"github.com/rockclean/rock/internal/must"
	"github.com/rockclean/rock/internal/predicate"
	"github.com/rockclean/rock/internal/ree"
)

func transEnv(t *testing.T, n int) (*predicate.Env, *data.Relation) {
	t.Helper()
	schema := must.Schema("Trans",
		data.Attribute{Name: "sid", Type: data.TString},
		data.Attribute{Name: "com", Type: data.TString},
		data.Attribute{Name: "mfg", Type: data.TString},
	)
	rel := data.NewRelation(schema)
	// Ten textually distinct commodity lines so LSH blocking can separate
	// the groups.
	lines := []string{
		"zebra telescope deluxe", "quantum harvest engine", "maple syrup dispenser",
		"arctic penguin statue", "velvet midnight gown", "copper lantern antique",
		"whistling kettle pro", "granite chess board", "neon skate wheels",
		"bamboo flute classic",
	}
	for i := 0; i < n; i++ {
		mfg := "Huawei"
		if i%7 == 0 {
			mfg = "Apple"
		}
		rel.Insert(fmt.Sprintf("p%d", i),
			data.S(fmt.Sprintf("s%d", i%5)),
			data.S(lines[i%10]),
			data.S(mfg))
	}
	db := data.NewDatabase()
	db.Add(rel)
	env := predicate.NewEnv(db)
	env.Models.Register(ml.NewSimilarityMatcher("M_ER", 0.85))
	return env, rel
}

func countViolations(t *testing.T, env *predicate.Env, r *ree.Rule, opts Options) int {
	t.Helper()
	e := New(env)
	n := 0
	_, err := e.Run(r, opts, func(h *predicate.Valuation) bool {
		ok, err := h.Frame.P0.Eval(env, h)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			n++
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestExecutorMatchesReferenceSemantics(t *testing.T) {
	env, _ := transEnv(t, 40)
	r := must.Rule("Trans(t) ^ Trans(s) ^ t.com = s.com -> t.mfg = s.mfg", env.DB)
	r.ID = "phi2"
	ref, err := r.Violations(env, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := countViolations(t, env, r, Options{})
	if got != len(ref) {
		t.Errorf("executor found %d violations, reference %d", got, len(ref))
	}
	if len(ref) == 0 {
		t.Fatal("test data should contain violations")
	}
}

func TestExecutorHashJoinPruning(t *testing.T) {
	env, rel := transEnv(t, 100)
	r := must.Rule("Trans(t) ^ Trans(s) ^ t.com = s.com -> t.mfg = s.mfg", env.DB)
	e := New(env)
	st, err := e.Run(r, Options{}, func(h *predicate.Valuation) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	allPairs := rel.Len() * (rel.Len() - 1)
	if st.Enumerated >= allPairs {
		t.Errorf("hash join enumerated %d >= %d (no pruning)", st.Enumerated, allPairs)
	}
	if st.Valuations == 0 {
		t.Error("expected matching valuations")
	}
}

func TestExecutorConstantPushdown(t *testing.T) {
	env, _ := transEnv(t, 100)
	r := must.Rule("Trans(t) ^ t.mfg = 'Apple' -> t.sid = 'nonexistent'", env.DB)
	e := New(env)
	st, err := e.Run(r, Options{}, func(h *predicate.Valuation) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	// Only the ~100/7 Apple tuples should be enumerated.
	if st.Enumerated > 20 {
		t.Errorf("constant pushdown missing: enumerated %d", st.Enumerated)
	}
}

func TestExecutorBlockingReducesMLCalls(t *testing.T) {
	env, rel := transEnv(t, 80)
	r := must.Rule("Trans(t) ^ Trans(s) ^ M_ER(t[com], s[com]) -> t.eid = s.eid", env.DB)
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
		t.Errorf("blocking must reduce ML calls: blocked=%d naive=%d", blocked.MLCalls, naive.MLCalls)
	}
	_ = rel
	// Blocking must preserve (nearly all) true matches: every commodity
	// string repeats exactly (i%10), so matches are exact duplicates that
	// LSH always co-buckets.
	if blocked.Valuations < naive.Valuations*9/10 {
		t.Errorf("blocking lost too many matches: %d vs %d", blocked.Valuations, naive.Valuations)
	}
}

func TestExecutorDirtyFiltering(t *testing.T) {
	env, rel := transEnv(t, 50)
	r := must.Rule("Trans(t) ^ Trans(s) ^ t.com = s.com -> t.mfg = s.mfg", env.DB)
	e := New(env)
	full, _ := e.Run(r, Options{}, func(h *predicate.Valuation) bool { return true })
	dirty := map[string]map[int]bool{"Trans": {rel.Tuples[0].TID: true}}
	inc, _ := e.Run(r, Options{Dirty: dirty}, func(h *predicate.Valuation) bool { return true })
	if inc.Valuations >= full.Valuations {
		t.Errorf("dirty filter must shrink work: %d vs %d", inc.Valuations, full.Valuations)
	}
	if inc.Valuations == 0 {
		t.Error("dirty tuple participates in matches; expected > 0")
	}
}

func TestExecutorRestrictPartition(t *testing.T) {
	env, rel := transEnv(t, 50)
	r := must.Rule("Trans(t) ^ Trans(s) ^ t.com = s.com -> t.mfg = s.mfg", env.DB)
	e := New(env)
	part := rel.Tuples[:10]
	block := crystal.Block{Tuples: part}
	st, err := e.Run(r, Options{RestrictVar: map[string]crystal.Block{"t": block, "s": block}}, func(h *predicate.Valuation) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	full, _ := e.Run(r, Options{}, func(h *predicate.Valuation) bool { return true })
	if st.Valuations >= full.Valuations {
		t.Error("partition restriction must shrink results")
	}
}

func TestExecutorEarlyStop(t *testing.T) {
	env, _ := transEnv(t, 50)
	r := must.Rule("Trans(t) ^ Trans(s) ^ t.com = s.com -> t.mfg = s.mfg", env.DB)
	e := New(env)
	n := 0
	st, err := e.Run(r, Options{}, func(h *predicate.Valuation) bool {
		n++
		return n < 2
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Valuations != 2 {
		t.Errorf("early stop: %d", st.Valuations)
	}
}

func TestExecutorErrors(t *testing.T) {
	env, _ := transEnv(t, 5)
	e := New(env)
	bad := must.Rule("Ghost(t) -> t.a = 1", nil)
	if _, err := e.Run(bad, Options{}, func(h *predicate.Valuation) bool { return true }); err == nil {
		t.Error("unknown relation must error")
	}
	badG := must.Rule("Trans(t) ^ vertex(x, NoGraph) ^ HER(t, x) -> t.mfg = 'x'", nil)
	if _, err := e.Run(badG, Options{}, func(h *predicate.Valuation) bool { return true }); err == nil {
		t.Error("unknown graph must error")
	}
}

// fixedMfg installs a view that makes every mfg read as "Fixed", and so
// shadows every tuple.
func fixedMfg(env *predicate.Env, rel *data.Relation) {
	shadow := map[int]bool{}
	for _, tp := range rel.Tuples {
		shadow[tp.TID] = true
	}
	env.View = newTestView(func(relName string, tp *data.Tuple, attr string) data.Value {
		if attr == "mfg" {
			return data.S("Fixed")
		}
		return tp.Values[rel.Schema.Index(attr)]
	}, map[string]map[int]bool{"Trans": shadow})
}

func TestViewRespected(t *testing.T) {
	env, rel := transEnv(t, 10)
	fixedMfg(env, rel)
	e := New(env)
	// With every mfg read as "Fixed" the CR rule has no violations...
	r := must.Rule("Trans(t) ^ Trans(s) ^ t.com = s.com -> t.mfg = s.mfg", env.DB)
	violations := 0
	if _, err := e.Run(r, Options{}, func(h *predicate.Valuation) bool {
		if ok, err := h.Frame.P0.Eval(env, h); err != nil || !ok {
			violations++
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if violations != 0 {
		t.Errorf("hooked values must remove violations, got %d", violations)
	}
	// ...and a selection on the hooked value keeps every tuple.
	sel := must.Rule("Trans(t) ^ t.mfg = 'Fixed' -> t.sid = 'x'", env.DB)
	st, err := e.Run(sel, Options{}, func(*predicate.Valuation) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if st.Valuations != rel.Len() {
		t.Errorf("selection on the hooked value kept %d of %d tuples", st.Valuations, rel.Len())
	}
}
