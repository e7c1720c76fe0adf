package exec

import (
	"fmt"
	"slices"
	"testing"

	"github.com/rockclean/rock/internal/data"
	"github.com/rockclean/rock/internal/ml"
	"github.com/rockclean/rock/internal/must"
	"github.com/rockclean/rock/internal/predicate"
	"github.com/rockclean/rock/internal/ree"
)

// The posting join keys on every equality of X between its two slots
// (joinKeys): a raw t pairs with a raw-matched s only if their ids agree
// on each extra key. These tests hold the join to a brute-force scan's
// ordered emission, and Stats.Enumerated to the pairs that survive.

// keysEnv builds A(x int, p, q) and B(y float, r, q). x and y overlap
// numerically, ten values each (the driver join translates int ids to float ids); p and r
// overlap but neither dictionary is the other's: A holds p0..p2 and, every
// 11th tuple, pA (absent from B's r), B holds p0..p3; every 7th A tuple
// has a null p and every 9th B tuple a null r.
func keysEnv(t testing.TB, nA, nB int) *predicate.Env {
	t.Helper()
	const mod = 10
	a := data.NewRelation(must.Schema("A",
		data.Attribute{Name: "x", Type: data.TInt},
		data.Attribute{Name: "p", Type: data.TString},
		data.Attribute{Name: "q", Type: data.TString}))
	b := data.NewRelation(must.Schema("B",
		data.Attribute{Name: "y", Type: data.TFloat},
		data.Attribute{Name: "r", Type: data.TString},
		data.Attribute{Name: "q", Type: data.TString}))
	for i := 0; i < nA; i++ {
		p := data.S(fmt.Sprintf("p%d", i%3))
		switch {
		case i%7 == 3:
			p = data.Null(data.TString)
		case i%11 == 5:
			p = data.S("pA")
		}
		a.Insert(fmt.Sprintf("a%d", i), data.I(int64(i%mod)), p, data.S(fmt.Sprintf("q%d", i%2)))
	}
	for i := 0; i < nB; i++ {
		r := data.S(fmt.Sprintf("p%d", (i/2)%4))
		if i%9 == 4 {
			r = data.Null(data.TString)
		}
		b.Insert(fmt.Sprintf("b%d", i), data.F(float64(i%mod)), r, data.S(fmt.Sprintf("q%d", (i/3)%2)))
	}
	db := data.NewDatabase()
	db.Add(a)
	db.Add(b)
	return predicate.NewEnv(db)
}

// shadowKeys installs a view over keysEnv that shadows A0..A3, A6 and
// B2, B4, B5: A0's x kills its raw matches; A1's p moves onto p3, a value
// only B's dictionary has; A2 and B2 move onto pZ, in neither dictionary;
// A3's null p reads p0; A6, walked right after A5's key pA that no s
// has, reads p1; B4 moves onto y = 3, r = p1; B5's r reads null.
func shadowKeys(env *predicate.Env) {
	env.View = newTestView(func(rel string, tp *data.Tuple, attr string) data.Value {
		switch {
		case rel == "A" && tp.TID == 0 && attr == "x":
			return data.I(1234567)
		case rel == "A" && tp.TID == 1 && attr == "p":
			return data.S("p3")
		case (rel == "A" && attr == "p" || rel == "B" && attr == "r") && tp.TID == 2:
			return data.S("pZ")
		case rel == "A" && tp.TID == 3 && attr == "p":
			return data.S("p0")
		case rel == "A" && tp.TID == 6 && attr == "p":
			return data.S("p1")
		case rel == "B" && tp.TID == 4 && attr == "y":
			return data.F(3)
		case rel == "B" && tp.TID == 4 && attr == "r":
			return data.S("p1")
		case rel == "B" && tp.TID == 5 && attr == "r":
			return data.Null(data.TString)
		}
		return rawValue(env, rel, tp, attr)
	}, map[string]map[int]bool{"A": {0: true, 1: true, 2: true, 3: true, 6: true}, "B": {2: true, 4: true, 5: true}})
}

// keyRules are the composite shapes, each with its driver equality
// alone: two and three equalities, across relations (every key
// translated) and within one (no translation), with a key in each
// orientation.
var keyRules = []struct{ rule, driver string }{
	{"A(t) ^ B(s) ^ t.x = s.y ^ t.p = s.r -> t.eid = s.eid", "A(t) ^ B(s) ^ t.x = s.y -> t.eid = s.eid"},
	{"A(t) ^ B(s) ^ t.x = s.y ^ s.r = t.p ^ t.q = s.q -> t.eid = s.eid", "A(t) ^ B(s) ^ t.x = s.y -> t.eid = s.eid"},
	{"A(t) ^ A(s) ^ t.x = s.x ^ t.p = s.p -> t.eid = s.eid", "A(t) ^ A(s) ^ t.x = s.x -> t.eid = s.eid"},
	{"A(t) ^ A(s) ^ t.x = s.x ^ s.q = t.q ^ t.p = s.p -> t.eid = s.eid", "A(t) ^ A(s) ^ t.x = s.x -> t.eid = s.eid"},
}

// bruteForcePairs is the oracle of a two-atom rule: every (t, s) of
// distinct tuples, t-major and s ascending by TID, on which every
// predicate of X holds through the env's view, under the dirty filter
// when one is given. Equalities compare values read once per tuple;
// other predicates evaluate per pair.
func bruteForcePairs(t *testing.T, env *predicate.Env, r *ree.Rule, dirty map[string]map[int]bool) []int {
	t.Helper()
	fr, err := r.Compile(env.DB)
	if err != nil {
		t.Fatal(err)
	}
	viewOf := func(rel *data.Relation) [][]data.Value {
		out := make([][]data.Value, len(rel.Tuples))
		for i, tp := range rel.Tuples {
			for col := range rel.Schema.Attrs {
				out[i] = append(out[i], env.Value(rel, tp, col))
			}
		}
		return out
	}
	// clean[k][i] marks the i-th tuple of slot k's relation not dirty.
	cleanOf := func(rel *data.Relation) []bool {
		out := make([]bool, len(rel.Tuples))
		for i, tp := range rel.Tuples {
			out[i] = dirty != nil && !dirty[rel.Schema.Name][tp.TID]
		}
		return out
	}
	relT, relS := fr.Rels[0], fr.Rels[1]
	vals := [2][][]data.Value{viewOf(relT), viewOf(relS)}
	clean := [2][]bool{cleanOf(relT), cleanOf(relS)}
	h := fr.NewValuation()
	var out []int
	for i, ta := range relT.Tuples {
		for j, tb := range relS.Tuples {
			if ta == tb || clean[0][i] && clean[1][j] {
				continue
			}
			h.Tuples[0], h.Tuples[1] = ta, tb
			row := [2][]data.Value{vals[0][i], vals[1][j]}
			ok := true
			for _, p := range fr.X {
				if p.Kind == predicate.KAttr && p.Op == predicate.Eq {
					vt, vs := row[p.TSlot][p.ACol], row[p.SSlot][p.BCol]
					ok = !vt.IsNull() && !vs.IsNull() && vt.Equal(vs)
				} else if ok, err = p.Eval(env, h); err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
			}
			if ok {
				out = append(out, ta.TID, tb.TID)
			}
		}
	}
	return out
}

// runKeyed runs r and requires the brute-force scan's ordered emission.
func runKeyed(t *testing.T, env *predicate.Env, r *ree.Rule, opts Options) Stats {
	t.Helper()
	var got []int
	st, err := New(env).Run(r, opts, func(h *predicate.Valuation) bool {
		for _, tp := range h.Tuples {
			got = append(got, tp.TID)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := bruteForcePairs(t, env, r, opts.Dirty); !slices.Equal(got, want) {
		t.Fatalf("%s: emitted %d pairs, brute-force scan %d", r.ID, len(got)/2, len(want)/2)
	}
	return st
}

// checkCompositeJoin runs every composite shape over keysEnv, batch and
// under a dirty filter, against the brute-force scan. Without a view the
// keys prune exactly the pairs the binder would reject, so every pair
// enumerated is a valuation — over whole relations, where the join reads
// posting lists as positions, and again after a delete leaves the TIDs
// sparse, where it intersects and merges them. With a view, at least the
// raw pairs are pruned, so the run enumerates fewer pairs than the
// driver alone.
func checkCompositeJoin(t *testing.T, n int, shadowed bool) {
	env := keysEnv(t, n, n)
	if shadowed {
		shadowKeys(env)
	}
	dirty := map[string]map[int]bool{"A": {n / 2: true, 1: true}, "B": {n / 3: true, 2: true}}
	check := func(stage string) {
		t.Helper()
		for i, kr := range keyRules {
			r := must.Rule(kr.rule, env.DB)
			r.ID = fmt.Sprintf("%s: keys%d", stage, i)
			var batch Stats
			for k, opts := range []Options{{}, {Dirty: dirty}} {
				st := runKeyed(t, env, r, opts)
				if !shadowed && st.Enumerated != 2*st.Valuations {
					t.Fatalf("%s: enumerated %d bindings for %d valuations: a pair the keys reject was emitted", r.ID, st.Enumerated, st.Valuations)
				}
				if k == 0 {
					batch = st
				}
			}
			driver := must.Rule(kr.driver, env.DB)
			dst, err := New(env).Run(driver, Options{}, func(*predicate.Valuation) bool { return true })
			if err != nil {
				t.Fatal(err)
			}
			if n >= 63 && batch.Enumerated >= dst.Enumerated {
				t.Fatalf("%s: enumerated %d bindings, the driver alone %d: the keys pruned nothing", r.ID, batch.Enumerated, dst.Enumerated)
			}
		}
	}
	check("whole relations")
	if !shadowed && n > 2 {
		env.DB.Rel("A").Delete(n/2 + 1)
		env.DB.Rel("B").Delete(n/2 + 1)
		check("after a delete")
	}
}

// keySizes end past ten times heavyPostingLen, so the driver's buckets
// take the memoised intersection.
var keySizes = []int{5, 64, 700}

// TestHashJoinKeysOnEveryEquality covers the raw cases: a key translated
// across relations, a t key absent from s's dictionary (pA), and null
// keys on both sides.
func TestHashJoinKeysOnEveryEquality(t *testing.T) {
	for _, n := range keySizes {
		t.Run(fmt.Sprint(n), func(t *testing.T) { checkCompositeJoin(t, n, false) })
	}
}

// TestHashJoinKeysWithShadowedTuples covers the view: shadowed t and s
// pair on their view values whatever their raw keys, including a view
// key only s's dictionary holds, one in neither, and a null view key.
func TestHashJoinKeysWithShadowedTuples(t *testing.T) {
	for _, n := range keySizes {
		t.Run(fmt.Sprint(n), func(t *testing.T) { checkCompositeJoin(t, n, true) })
	}
}

// TestHashJoinKeysStopAtML: an equality after an ML predicate in X is
// not a key, so every driver pair still reaches the model, as the binder
// would evaluate it first; one before it is a key, and fewer pairs do.
func TestHashJoinKeysStopAtML(t *testing.T) {
	env := keysEnv(t, 200, 200)
	env.Models.Register(ml.NewSimilarityMatcher("M_ER", 0.5))
	after := must.Rule("A(t) ^ B(s) ^ t.x = s.y ^ M_ER(t[q], s[q]) ^ t.p = s.r -> t.eid = s.eid", env.DB)
	before := must.Rule("A(t) ^ B(s) ^ t.x = s.y ^ t.p = s.r ^ M_ER(t[q], s[q]) -> t.eid = s.eid", env.DB)
	driver := must.Rule("A(t) ^ B(s) ^ t.x = s.y ^ M_ER(t[q], s[q]) -> t.eid = s.eid", env.DB)
	stAfter := runKeyed(t, env, after, Options{})
	stBefore := runKeyed(t, env, before, Options{})
	stDriver := runKeyed(t, env, driver, Options{})
	if stAfter.MLCalls != stDriver.MLCalls {
		t.Fatalf("a key after the ML predicate changed its calls: %d, driver alone %d", stAfter.MLCalls, stDriver.MLCalls)
	}
	if stBefore.MLCalls >= stDriver.MLCalls {
		t.Fatalf("a key before the ML predicate pruned no call: %d, driver alone %d", stBefore.MLCalls, stDriver.MLCalls)
	}
}
