package exec

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/rockclean/rock/internal/data"
	"github.com/rockclean/rock/internal/ml"
	"github.com/rockclean/rock/internal/must"
	"github.com/rockclean/rock/internal/predicate"
)

// slotEnv is two small relations over tiny domains, with nulls: R(a, b, c)
// and S(x, y), so joins, self-pairs and null checks all fire.
func slotEnv(rng *rand.Rand) *predicate.Env {
	val := func(dom string, k int) data.Value {
		if rng.Intn(8) == 0 {
			return data.Null(data.TString)
		}
		return data.S(fmt.Sprintf("%s%d", dom, rng.Intn(k)))
	}
	r := data.NewRelation(must.Schema("R",
		data.Attribute{Name: "a", Type: data.TString},
		data.Attribute{Name: "b", Type: data.TString},
		data.Attribute{Name: "c", Type: data.TString}))
	for i := 0; i < 14; i++ {
		r.Insert(fmt.Sprintf("r%d", i), val("v", 3), val("w", 2), val("v", 4))
	}
	s := data.NewRelation(must.Schema("S",
		data.Attribute{Name: "x", Type: data.TString},
		data.Attribute{Name: "y", Type: data.TString}))
	for i := 0; i < 9; i++ {
		s.Insert(fmt.Sprintf("s%d", i), val("v", 3), val("w", 2))
	}
	db := data.NewDatabase()
	db.Add(r)
	db.Add(s)
	env := predicate.NewEnv(db)
	env.Models.Register(ml.NewSimilarityMatcher("M_ER", 0.9))
	return env
}

// TestSlotBinderMatchesViolations checks the compiled binder — binding
// order, per-level ready predicates, self-pair slots and equality probes
// — against ree.Rule.Violations, the nested-loop reference, on rule
// shapes that exercise each: the violating valuations, as TIDs in slot
// order, must be the same multiset.
func TestSlotBinderMatchesViolations(t *testing.T) {
	shapes := []string{
		"R(t) ^ t.a = 'v1' -> t.b = 'w0'",
		"R(t) ^ null(t.b) -> t.b = 'w1'",
		"R(t) ^ R(s) ^ t.a = s.a -> t.b = s.b",
		"R(t) ^ R(s) ^ t.a = s.c ^ t.b != s.b -> t.c = s.a",
		"R(t) ^ R(s) ^ t.c < s.c -> t.a = s.a",
		"R(t) ^ S(s) ^ R(u) ^ t.a = s.x ^ s.x = u.c ^ t.b = 'w1' -> t.c = u.a",
		"R(t) ^ S(s) ^ R(u) ^ s.y = u.b ^ t.a = u.a -> t.b = s.y",
		"S(s) ^ R(t) ^ R(u) ^ t.a = u.a ^ !null(s.x) -> t.b = u.b",
		"R(t) ^ R(s) ^ M_ER(t[a,b], s[a,b]) -> t.c = s.c",
	}
	for seed := int64(1); seed <= 4; seed++ {
		env := slotEnv(rand.New(rand.NewSource(seed)))
		e := New(env)
		for _, src := range shapes {
			r := must.Rule(src, env.DB)
			ref, err := r.Violations(env, 0)
			if err != nil {
				t.Fatal(err)
			}
			var want, got [][]int
			for _, v := range ref {
				want = append(want, tidsOfValuation(v.H))
			}
			if _, err := e.Run(r, Options{}, func(h *predicate.Valuation) bool {
				ok, err := h.Frame.P0.Eval(env, h)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					got = append(got, tidsOfValuation(h))
				}
				return true
			}); err != nil {
				t.Fatal(err)
			}
			cmp := func(a, b []int) int { return slices.Compare(a, b) }
			slices.SortFunc(want, cmp)
			slices.SortFunc(got, cmp)
			if !slices.EqualFunc(got, want, slices.Equal[[]int]) {
				t.Errorf("seed %d, %s: executor violations %v, reference %v", seed, src, got, want)
			}
		}
	}
}

func tidsOfValuation(h *predicate.Valuation) []int {
	out := make([]int, len(h.Tuples))
	for i, t := range h.Tuples {
		out[i] = t.TID
	}
	return out
}

// TestSlotUnboundVariableNeverEvaluates pins what a predicate over a
// variable the rule does not bind does in the compiled binder: it never
// becomes ready, so it neither filters nor errors, as before slots.
func TestSlotUnboundVariableNeverEvaluates(t *testing.T) {
	env := slotEnv(rand.New(rand.NewSource(1)))
	r := must.Rule("R(t) ^ t.a = 'v1' -> t.b = 'w0'", env.DB)
	all, err := New(env).Run(r, Options{}, func(*predicate.Valuation) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	r.X = append(r.X, &predicate.Predicate{Kind: predicate.KConst, Op: predicate.Eq, T: "zz", A: "a", C: data.S("v1")})
	got, err := New(env).Run(r, Options{}, func(*predicate.Valuation) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if got.Valuations != all.Valuations || all.Valuations == 0 {
		t.Errorf("with a predicate over an unbound variable: %d valuations, want %d", got.Valuations, all.Valuations)
	}
}
