package exec

import (
	"fmt"
	"testing"

	"github.com/rockclean/rock/internal/data"
	"github.com/rockclean/rock/internal/must"
	"github.com/rockclean/rock/internal/predicate"
)

// keyedEnv builds one relation R(k, flag, val): k partitions the tuples
// into groups of ten and only the first two tuples carry flag "x", so a
// constant predicate on flag is highly selective.
func keyedEnv(t *testing.T, n int) *predicate.Env {
	t.Helper()
	schema := must.Schema("R",
		data.Attribute{Name: "k", Type: data.TString},
		data.Attribute{Name: "flag", Type: data.TString},
		data.Attribute{Name: "val", Type: data.TString},
	)
	rel := data.NewRelation(schema)
	for i := 0; i < n; i++ {
		flag := "y"
		if i < 2 {
			flag = "x"
		}
		rel.Insert(fmt.Sprintf("e%d", i),
			data.S(fmt.Sprintf("k%d", i%10)),
			data.S(flag),
			data.S(fmt.Sprintf("v%d", i%3)))
	}
	db := data.NewDatabase()
	db.Add(rel)
	return predicate.NewEnv(db)
}

// A predicate error in the middle of the driver-pair loop must surface as
// Run's error, reach the callback zero times after the failure point, and
// leave the executor fully usable: the next Run must see complete results.
// (Regression: the loop used to break without unwinding h/bound/depth.)
func TestExecutorErrorMidEnumerationUnwinds(t *testing.T) {
	env, _ := transEnv(t, 40)
	good := must.Rule("Trans(t) ^ Trans(s) ^ t.com = s.com -> t.mfg = s.mfg", env.DB)
	// M_missing is never registered: checkAt errors right after the first
	// driver pair binds, i.e. mid-enumeration with two variables bound.
	bad := must.Rule("Trans(t) ^ Trans(s) ^ t.com = s.com ^ M_missing(t[com], s[com]) -> t.mfg = s.mfg", env.DB)

	e := New(env)
	calls := 0
	if _, err := e.Run(bad, Options{}, func(h *predicate.Valuation) bool {
		calls++
		return true
	}); err == nil {
		t.Fatal("unregistered model must fail the run")
	}
	if calls != 0 {
		t.Errorf("callback ran %d times during a failed enumeration", calls)
	}

	ref, err := New(env).Run(good, Options{}, func(h *predicate.Valuation) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Run(good, Options{}, func(h *predicate.Valuation) bool { return true })
	if err != nil {
		t.Fatalf("executor unusable after failed run: %v", err)
	}
	if got.Valuations != ref.Valuations || ref.Valuations == 0 {
		t.Errorf("reused executor found %d valuations, fresh executor %d", got.Valuations, ref.Valuations)
	}
}

// probeJoin must intersect its index probe with the constant-pushdown
// candidate set: with a selective constant predicate on the probed
// variable, tuples outside the candidate set must never be enumerated.
func TestProbeJoinRespectsConstantPushdown(t *testing.T) {
	env := keyedEnv(t, 100)
	// t.k = s.k drives the pair loop; u is reached through probeJoin on
	// s.k = u.k and is constant-restricted to the two flag='x' tuples.
	r := must.Rule("R(t) ^ R(s) ^ R(u) ^ t.k = s.k ^ s.k = u.k ^ u.flag = 'x' -> t.val = s.val", env.DB)

	e := New(env)
	st, err := e.Run(r, Options{}, func(h *predicate.Valuation) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	// 10 groups of 10 yield 900 driver pairs (1800 enumerations); only the
	// two groups holding an 'x' tuple contribute one probed u each (≈180
	// more). Without the intersection, every probe scans its whole k-group
	// and Enumerated exceeds 10000.
	if st.Enumerated > 2500 {
		t.Errorf("probeJoin ignored constant pushdown: enumerated %d", st.Enumerated)
	}
	if st.Valuations == 0 {
		t.Error("expected matching valuations through the probed join")
	}
}
