package exec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/rockclean/rock/internal/crystal"
	"github.com/rockclean/rock/internal/data"
	"github.com/rockclean/rock/internal/must"
	"github.com/rockclean/rock/internal/obs"
	"github.com/rockclean/rock/internal/predicate"
	"github.com/rockclean/rock/internal/ree"
)

// Run's contract: it emits exactly the valuations h with h |= X on which
// an attribute-equality P0 does not hold (a null on either side never
// holds), in its emission order. These tests hold it to ree's reference
// enumeration (Rule.Violations, which keeps h |= X and h ̸|= P0), over
// generated data and a generated view, on rules whose driver binds the
// first two atoms in atom order, so both enumerate in the same order.

// contractEnv builds A(k, j, v, w, f, n, m) and B(k, j, v, x) with n tuples
// each. The join key k is skewed: k0 and k1 carry about a third and a
// quarter of the tuples (past heavyPostingLen at n = 300, so their
// buckets take the memoised paths). A key whose index is a multiple of
// three is uniform: every tuple of it carries the key's v, w and x. Any
// other key is mixed: v, w and x are drawn from a shared domain, a value
// only one relation holds, or null. f is a float that is NaN now and then
// and otherwise +0 or -0 (which are Equal); n is 7, 2⁵³ or 2⁵³ + 1 (which
// are not). m is n, except that k0's m is 2⁵³ or 2⁵³ + 1 and, on its
// first tuple, the float 2⁵³, which both are Equal to: k0's heavy bucket
// summary must not stand for them both. When view is true, one tuple in
// eight is shadowed: its k, j, v, w, x, f, n or m reads another value of
// the domain, a value no dictionary holds, null, or its raw value.
func contractEnv(rng *rand.Rand, n int, view bool) *predicate.Env {
	a := data.NewRelation(must.Schema("A",
		data.Attribute{Name: "k", Type: data.TString},
		data.Attribute{Name: "j", Type: data.TInt},
		data.Attribute{Name: "v", Type: data.TString},
		data.Attribute{Name: "w", Type: data.TString},
		data.Attribute{Name: "f", Type: data.TFloat},
		data.Attribute{Name: "n", Type: data.TInt},
		data.Attribute{Name: "m", Type: data.TFloat}))
	b := data.NewRelation(must.Schema("B",
		data.Attribute{Name: "k", Type: data.TString},
		data.Attribute{Name: "j", Type: data.TInt},
		data.Attribute{Name: "v", Type: data.TString},
		data.Attribute{Name: "x", Type: data.TString}))
	key := func() int {
		switch d := rng.Intn(100); {
		case d < 35:
			return 0
		case d < 60:
			return 1
		default:
			return 2 + rng.Intn(10)
		}
	}
	mixed := func(dom, own string, k int) data.Value {
		switch d := rng.Intn(10); {
		case d == 0:
			return data.Null(data.TString)
		case d == 1:
			return data.S(own)
		case d < 5:
			return data.S(fmt.Sprintf("%s%d", dom, k%4))
		default:
			return data.S(fmt.Sprintf("%s%d", dom, rng.Intn(4)))
		}
	}
	sawK0 := false
	for i := 0; i < n; i++ {
		k := key()
		v, w := data.S(fmt.Sprintf("v%d", k%4)), data.S(fmt.Sprintf("w%d", k%4))
		if k%3 != 0 {
			v, w = mixed("v", "vA", k), mixed("w", "wA", k)
		}
		f := data.F(0)
		switch rng.Intn(4) {
		case 0:
			f = data.F(math.NaN())
		case 1:
			f = data.F(math.Copysign(0, -1))
		}
		n := []int64{7, 1 << 53, 1<<53 + 1}[rng.Intn(3)]
		m := data.I(n)
		if k == 0 {
			m = data.I([]int64{1 << 53, 1<<53 + 1}[rng.Intn(2)])
			if !sawK0 {
				m, sawK0 = data.F(1<<53), true
			}
		}
		a.Insert(fmt.Sprintf("a%d", i), data.S(fmt.Sprintf("k%d", k)), data.I(int64(rng.Intn(3))), v, w, f, data.I(n), m)
	}
	for i := 0; i < n; i++ {
		k := key()
		v, x := data.S(fmt.Sprintf("v%d", k%4)), data.S(fmt.Sprintf("w%d", k%4))
		if k%3 != 0 {
			v, x = mixed("v", "vB", k), mixed("w", "xB", k)
		}
		b.Insert(fmt.Sprintf("b%d", i), data.S(fmt.Sprintf("k%d", k)), data.I(int64(rng.Intn(3))), v, x)
	}
	db := data.NewDatabase()
	db.Add(a)
	db.Add(b)
	env := predicate.NewEnv(db)
	if !view {
		return env
	}
	moved := map[string]map[int]map[string]data.Value{}
	shadow := map[string]map[int]bool{}
	for _, rel := range []*data.Relation{a, b} {
		name := rel.Schema.Name
		moved[name], shadow[name] = map[int]map[string]data.Value{}, map[int]bool{}
		for _, tp := range rel.Tuples {
			if rng.Intn(8) != 0 {
				continue
			}
			shadow[name][tp.TID] = true
			attr := rel.Schema.Attrs[rng.Intn(len(rel.Schema.Attrs))]
			var v data.Value
			switch rng.Intn(4) {
			case 0:
				if attr.Type == data.TString {
					v = data.S(fmt.Sprintf("%s%d", map[string]string{"k": "k", "v": "v", "w": "w", "x": "w"}[attr.Name], rng.Intn(4)))
				} else {
					v = data.F(0)
				}
			case 1:
				v = data.S("nowhere")
			case 2:
				v = data.Null(attr.Type)
			default:
				continue // shadowed, reading its raw value
			}
			if attr.Name == "j" || attr.Name == "n" || attr.Name == "m" {
				v = data.I(int64(rng.Intn(3)))
			}
			moved[name][tp.TID] = map[string]data.Value{attr.Name: v}
		}
	}
	env.View = newTestView(func(rel string, tp *data.Tuple, attr string) data.Value {
		if v, ok := moved[rel][tp.TID][attr]; ok {
			return v
		}
		return rawValue(env, rel, tp, attr)
	}, shadow)
	return env
}

// contractRules are the shapes the contract covers: a consequence on the
// join's column pair either way round, across relations and within one
// relation across columns, on the join attribute itself, on one slot, on
// a float with NaN and signed zeros, on numbers past 2⁵³ (with and
// without a heavy bucket summary that would stand for two of them),
// beside extra join keys, under a constant pushdown, at a probed third
// slot, and with no equality driver at all (nested loops).
var contractRules = []string{
	"A(t) ^ A(s) ^ t.k = s.k -> t.v = s.v",
	"A(t) ^ A(s) ^ t.k = s.k -> s.v = t.v",
	"A(t) ^ B(s) ^ t.k = s.k -> t.v = s.v",
	"A(t) ^ B(s) ^ t.k = s.k -> t.w = s.x",
	"A(t) ^ B(s) ^ t.k = s.k -> s.x = t.w",
	"A(t) ^ A(s) ^ t.k = s.k -> t.v = s.w",
	"A(t) ^ A(s) ^ t.k = s.k -> t.k = s.k",
	"A(t) ^ A(s) ^ t.k = s.k -> t.v = t.w",
	"A(t) ^ A(s) ^ t.k = s.k -> t.f = s.f",
	"A(t) ^ A(s) ^ t.k = s.k -> t.n = s.n",
	"A(t) ^ A(s) ^ t.k = s.k -> t.m = s.m",
	"A(t) ^ A(s) ^ t.k = s.k ^ t.j = s.j -> t.v = s.v",
	"A(t) ^ B(s) ^ t.k = s.k ^ s.j = t.j -> t.w = s.x",
	"A(t) ^ B(s) ^ t.k = s.k ^ t.v = 'v1' -> t.w = s.x",
	"A(t) ^ A(s) ^ A(u) ^ t.k = s.k ^ s.k = u.k -> t.v = u.v",
	"A(t) ^ B(s) ^ t.j < s.j ^ t.v = 'v2' -> t.w = s.x",
}

// referenceViolations is the contract's oracle: of ree's enumeration ref
// of h |= X and h ̸|= P0, the TIDs in slot order of the valuations whose
// every slot's tuple is in its restricted block (keep) and, under a dirty
// filter, one of whose slots binds a dirty tuple.
func referenceViolations(ref []*ree.Violation, keep func(slot int, tid int) bool, dirty map[string]map[int]bool) []int {
	var out []int
	for _, v := range ref {
		ok, touches := true, dirty == nil
		for slot, tp := range v.H.Tuples {
			ok = ok && keep(slot, tp.TID)
			touches = touches || dirty[v.H.Rel(slot)][tp.TID]
		}
		if ok && touches {
			out = append(out, tidsOfValuation(v.H)...)
		}
	}
	return out
}

// checkContract runs every contract rule over env, whole and over 2 × 2
// TID blocks, batch and under sparse and full dirty filters, against the
// reference. The three-atom rule's reference costs n³, so it runs only
// over small relations. It returns the number of violations compared.
func checkContract(t *testing.T, env *predicate.Env, rng *rand.Rand) int {
	t.Helper()
	compared := 0
	for i, src := range contractRules {
		r := must.Rule(src, env.DB)
		r.ID = fmt.Sprintf("contract%d", i)
		fr, err := r.Compile(env.DB)
		if err != nil {
			t.Fatal(err)
		}
		if len(fr.Vars) > 2 && env.DB.Rel("A").Len() > 100 {
			continue
		}
		ref, err := r.Violations(env, 0)
		if err != nil {
			t.Fatal(err)
		}
		dirties := []map[string]map[int]bool{nil, {"A": {}, "B": {}}, {"A": {}, "B": {}}}
		for _, rel := range []*data.Relation{env.DB.Rel("A"), env.DB.Rel("B")} {
			name := rel.Schema.Name
			for k := 0; k < 3; k++ {
				dirties[1][name][rel.Tuples[rng.Intn(rel.Len())].TID] = true
			}
			for _, tp := range rel.Tuples {
				dirties[2][name][tp.TID] = true
			}
		}
		for _, part := range []int{-1, 0, 1, 2, 3} {
			opts := Options{}
			keep := func(int, int) bool { return true }
			if part >= 0 {
				// Slots t and s range over block part/2 and part%2 of their
				// relations' two TID blocks; any third slot over its whole
				// relation.
				opts.RestrictVar = map[string]crystal.Block{
					fr.Vars[0]: env.Columns.Blocks(fr.Rels[0], 2)[part/2],
					fr.Vars[1]: env.Columns.Blocks(fr.Rels[1], 2)[part%2],
				}
				keep = func(slot, tid int) bool {
					switch slot {
					case 0:
						return tid%2 == part/2
					case 1:
						return tid%2 == part%2
					}
					return true
				}
			}
			for d, dirty := range dirties {
				if d > 0 && len(fr.Vars) > 2 {
					// The pair join keeps only pairs with a dirty side, so a
					// valuation whose one dirty tuple a third slot binds is
					// lost under a dirty filter, with or without P0: a known
					// gap of the executor (ROADMAP), not of this contract.
					break
				}
				opts.Dirty = dirty
				var got []int
				st, err := New(env).Run(r, opts, func(h *predicate.Valuation) bool {
					got = append(got, tidsOfValuation(h)...)
					return true
				})
				if err != nil {
					t.Fatal(err)
				}
				want := referenceViolations(ref, keep, dirty)
				if !slices.Equal(got, want) {
					t.Fatalf("%s, block %d, dirty filter %d: emitted %d valuations, reference %d violations\n got %v\nwant %v",
						src, part, d, st.Valuations, len(want)/len(fr.Vars), got, want)
				}
				compared += len(want) / len(fr.Vars)
			}
		}
	}
	return compared
}

// TestRunEmitsExactlyViolations: with and without a chase view, at sizes
// below and past heavyPostingLen, Run emits the reference's violations in
// the reference's order, and so drops every valuation on which P0
// already holds and no other.
func TestRunEmitsExactlyViolations(t *testing.T) {
	for _, n := range []int{40, 300} {
		for _, view := range []bool{false, true} {
			t.Run(fmt.Sprintf("n=%d/view=%v", n, view), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(n)))
				env := contractEnv(rng, n, view)
				if checkContract(t, env, rng) == 0 {
					t.Fatal("the fixture has no violations")
				}
			})
		}
	}
}

// TestRunDropsSatisfiedPairsByBucket: over raw data, the posting join
// drops the pairs on which P0 holds before the binder sees them, so a
// rule whose consequence sits on the join's two slots enumerates no more
// pairs than it emits, and the uniform buckets are skipped whole.
func TestRunDropsSatisfiedPairsByBucket(t *testing.T) {
	env := contractEnv(rand.New(rand.NewSource(7)), 300, false)
	for _, src := range []string{
		"A(t) ^ A(s) ^ t.k = s.k -> t.v = s.v",
		"A(t) ^ A(s) ^ t.k = s.k -> s.v = t.v",
		"A(t) ^ B(s) ^ t.k = s.k -> t.w = s.x",
		"A(t) ^ A(s) ^ t.k = s.k ^ t.j = s.j -> t.v = s.v",
	} {
		r := must.Rule(src, env.DB)
		reg := obs.New()
		e := New(env)
		e.SetObs(reg)
		st, err := e.Run(r, Options{}, func(*predicate.Valuation) bool { return true })
		if err != nil {
			t.Fatal(err)
		}
		if st.Valuations == 0 || st.Enumerated != 2*st.Valuations {
			t.Fatalf("%s: enumerated %d bindings for %d violations: a satisfied pair reached the binder", src, st.Enumerated, st.Valuations)
		}
		if reg.CounterValue("exec.vec.join_uniform_skips") == 0 {
			t.Fatalf("%s: no bucket was skipped whole", src)
		}
	}
}
