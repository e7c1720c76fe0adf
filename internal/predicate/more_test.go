package predicate

import (
	"testing"

	"github.com/rockclean/rock/internal/data"
)

func TestOpApplyAllOperators(t *testing.T) {
	cases := []struct {
		op   Op
		a, b data.Value
		want bool
	}{
		{Eq, data.I(1), data.I(1), true},
		{Neq, data.I(1), data.I(2), true},
		{Lt, data.I(1), data.I(2), true},
		{Lt, data.I(2), data.I(2), false},
		{Leq, data.I(2), data.I(2), true},
		{Gt, data.I(3), data.I(2), true},
		{Geq, data.I(2), data.I(2), true},
		{Geq, data.I(1), data.I(2), false},
	}
	for _, c := range cases {
		if got := c.op.Apply(c.a, c.b); got != c.want {
			t.Errorf("%v %s %v = %v want %v", c.a, c.op, c.b, got, c.want)
		}
	}
}

func TestOpString(t *testing.T) {
	want := map[Op]string{Eq: "=", Neq: "!=", Lt: "<", Leq: "<=", Gt: ">", Geq: ">="}
	for op, s := range want {
		if op.String() != s {
			t.Errorf("op %d string %q want %q", op, op.String(), s)
		}
	}
}

// stubRanker orders by TID.
type stubRanker struct{}

func (stubRanker) Name() string { return "M_rank" }
func (stubRanker) RankLeq(rel string, older, newer *data.Tuple, attr string) float64 {
	if older.TID <= newer.TID {
		return 0.8
	}
	return 0.2
}

func TestEvalRank(t *testing.T) {
	env, rel, _ := testEnv(t)
	a := rel.Insert("e1", data.S("x"), data.S("y"), data.F(1))
	b := rel.Insert("e2", data.S("x"), data.S("y"), data.F(2))
	h := valuation(rel, nil, a, b)

	weak := &Predicate{Kind: KRank, Model: "M_rank", T: "t", S: "s", A: "accu_sales"}
	if _, err := eval(weak, env, h); err == nil {
		t.Error("missing ranker must error")
	}
	env.Ranker = stubRanker{}
	if ok, err := eval(weak, env, h); err != nil || !ok {
		t.Errorf("weak rank: %v %v", ok, err)
	}
	strict := &Predicate{Kind: KRank, Model: "M_rank", T: "t", S: "s", A: "accu_sales", Strict: true}
	if ok, err := eval(strict, env, h); err != nil || !ok {
		t.Errorf("strict rank: %v %v", ok, err)
	}
	// Reversed strict must fail (ranker favours ascending TIDs).
	h2 := valuation(rel, nil, b, a)
	if ok, _ := eval(strict, env, h2); ok {
		t.Error("reversed strict rank must be false")
	}
}

func TestEvalMissingDependencies(t *testing.T) {
	env, rel, _ := testEnv(t)
	tp := rel.Insert("e1", data.S("x"), data.S("y"), data.F(1))
	h := valuation(rel, &VertexBinding{"Wiki", 0}, tp)

	if _, err := eval(&Predicate{Kind: KHER, T: "t", X: "x"}, env, h); err == nil {
		t.Error("missing HER matcher must error")
	}
	if _, err := eval(&Predicate{Kind: KMatch, T: "t", A: "location", X: "x"}, env, h); err == nil {
		t.Error("missing path matcher must error")
	}
	if _, err := eval(&Predicate{Kind: KCorr, Model: "nope", T: "t", B: "location", Delta: 0.5}, env, h); err == nil {
		t.Error("missing correlation model must error")
	}
	if _, err := eval(&Predicate{Kind: KPredict, Model: "nope", T: "t", B: "location"}, env, h); err == nil {
		t.Error("missing predictor must error")
	}
	// Unknown kind errors.
	if _, err := eval(&Predicate{Kind: Kind(99)}, env, h); err == nil {
		t.Error("unknown kind must error")
	}
	// Unbound vertex variable errors.
	h2 := valuation(rel, nil, tp)
	if _, err := eval(&Predicate{Kind: KVertex, X: "zz", Graph: "Wiki"}, env, h2); err == nil {
		t.Error("unbound vertex var must error")
	}
}

func TestEvalKValMissingGraph(t *testing.T) {
	env, rel, _ := testEnv(t)
	tp := rel.Insert("e1", data.S("x"), data.S("y"), data.F(1))
	h := valuation(rel, &VertexBinding{"Ghost", 0}, tp)
	p := &Predicate{Kind: KVal, T: "t", A: "location", X: "x"}
	if _, err := eval(p, env, h); err == nil {
		t.Error("unregistered graph must error")
	}
}

func TestCorrStringWithAndWithoutConstant(t *testing.T) {
	withC := Predicate{Kind: KCorr, Model: "M_c", T: "t", B: "area", C: data.S("010"), Delta: 0.8}
	if got := withC.String(); got != "M_c(t, area='010') >= 0.8" {
		t.Errorf("corr with const: %q", got)
	}
	noC := Predicate{Kind: KCorr, Model: "M_c", T: "t", B: "area", Delta: 0.5}
	if got := noC.String(); got != "M_c(t, area) >= 0.5" {
		t.Errorf("corr without const: %q", got)
	}
}
