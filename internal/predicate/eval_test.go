package predicate

import (
	"testing"

	"github.com/rockclean/rock/internal/data"
	"github.com/rockclean/rock/internal/kg"
	"github.com/rockclean/rock/internal/ml"
)

// testEnv builds a tiny Store database, a Wiki graph, and all model kinds.
func testEnv(t *testing.T) (*Env, *data.Relation, *kg.Graph) {
	t.Helper()
	schema := mustSchema("Store",
		data.Attribute{Name: "name", Type: data.TString},
		data.Attribute{Name: "location", Type: data.TString},
		data.Attribute{Name: "accu_sales", Type: data.TFloat},
	)
	rel := data.NewRelation(schema)
	db := data.NewDatabase()
	db.Add(rel)
	env := NewEnv(db)
	g := kg.New("Wiki")
	env.Graphs["Wiki"] = g
	env.Models.Register(ml.NewSimilarityMatcher("M_ER", 0.8))
	return env, rel, g
}

// valuation binds t (and s) to the given tuples of rel and, when vertex
// is set, x to it, over a frame of just those variables.
func valuation(rel *data.Relation, vertex *VertexBinding, ts ...*data.Tuple) *Valuation {
	rels := make([]*data.Relation, len(ts))
	for i := range rels {
		rels[i] = rel
	}
	var vvars, graphs []string
	if vertex != nil {
		vvars, graphs = []string{"x"}, []string{vertex.Graph}
	}
	h := (&Frame{Vars: []string{"t", "s"}[:len(ts)], Rels: rels, VertexVars: vvars, Graphs: graphs}).NewValuation()
	copy(h.Tuples, ts)
	if vertex != nil {
		h.Vertices[0] = *vertex
	}
	return h
}

// eval compiles p against h's frame and evaluates it.
func eval(p *Predicate, env *Env, h *Valuation) (bool, error) { return h.Frame.Compile(p).Eval(env, h) }

func TestEvalConstAndAttr(t *testing.T) {
	env, rel, _ := testEnv(t)
	t1 := rel.Insert("s1", data.S("Huawei"), data.S("Beijing"), data.F(11))
	t2 := rel.Insert("s2", data.S("Huawei"), data.S("Shanghai"), data.F(10))
	h := valuation(rel, nil, t1, t2)

	pConst := &Predicate{Kind: KConst, Op: Eq, T: "t", A: "location", C: data.S("Beijing")}
	if ok, err := eval(pConst, env, h); err != nil || !ok {
		t.Errorf("const eq: %v %v", ok, err)
	}
	pGt := &Predicate{Kind: KAttr, Op: Gt, T: "t", A: "accu_sales", S: "s", B: "accu_sales"}
	if ok, err := eval(pGt, env, h); err != nil || !ok {
		t.Errorf("attr gt: %v %v", ok, err)
	}
	pName := &Predicate{Kind: KAttr, Op: Eq, T: "t", A: "name", S: "s", B: "name"}
	if ok, _ := eval(pName, env, h); !ok {
		t.Error("attr eq on same name")
	}
	// Unbound variable is an error, not false.
	pBad := &Predicate{Kind: KConst, Op: Eq, T: "zz", A: "location", C: data.S("x")}
	if _, err := eval(pBad, env, h); err == nil {
		t.Error("unbound var must error")
	}
}

func TestEvalNullSemantics(t *testing.T) {
	env, rel, _ := testEnv(t)
	t1 := rel.Insert("s1", data.S("Nike"), data.Null(data.TString), data.F(1))
	h := valuation(rel, nil, t1)
	pc := &Predicate{Kind: KConst, Op: Eq, T: "t", A: "location", C: data.S("Beijing")}
	if ok, _ := eval(pc, env, h); ok {
		t.Error("null never satisfies a comparison")
	}
	pn := &Predicate{Kind: KNull, T: "t", A: "location"}
	if ok, _ := eval(pn, env, h); !ok {
		t.Error("null() must see the null")
	}
	pnn := &Predicate{Kind: KNotNull, T: "t", A: "name"}
	if ok, _ := eval(pnn, env, h); !ok {
		t.Error("!null() on present value")
	}
}

func TestEvalEID(t *testing.T) {
	env, rel, _ := testEnv(t)
	a := rel.Insert("e1", data.S("x"), data.S("y"), data.F(0))
	b := rel.Insert("e1", data.S("x2"), data.S("y2"), data.F(0))
	c := rel.Insert("e2", data.S("x3"), data.S("y3"), data.F(0))
	h := valuation(rel, nil, a, b)
	p := &Predicate{Kind: KEID, Op: Eq, T: "t", S: "s"}
	if ok, _ := eval(p, env, h); !ok {
		t.Error("same EID must be equal")
	}
	h2 := valuation(rel, nil, a, c)
	if ok, _ := eval(p, env, h2); ok {
		t.Error("different EID must not be equal")
	}
	pneq := &Predicate{Kind: KEID, Op: Neq, T: "t", S: "s"}
	if ok, _ := eval(pneq, env, h2); !ok {
		t.Error("neq on different EIDs")
	}
}

func TestEvalML(t *testing.T) {
	env, rel, _ := testEnv(t)
	a := rel.Insert("s1", data.S("IPhone 14 (Discount ID 41)"), data.S("x"), data.F(0))
	b := rel.Insert("s2", data.S("IPhone 14 (Discount Code 41)"), data.S("y"), data.F(0))
	h := valuation(rel, nil, a, b)
	p := &Predicate{Kind: KML, Model: "M_ER", T: "t", S: "s", As: []string{"name"}, Bs: []string{"name"}}
	if ok, err := eval(p, env, h); err != nil || !ok {
		t.Errorf("ML match: %v %v", ok, err)
	}
	pBadModel := &Predicate{Kind: KML, Model: "M_missing", T: "t", S: "s", As: []string{"name"}, Bs: []string{"name"}}
	if _, err := eval(pBadModel, env, h); err == nil {
		t.Error("missing model must error")
	}
}

func TestEvalTemporal(t *testing.T) {
	env, rel, _ := testEnv(t)
	a := rel.Insert("s1", data.S("x"), data.S("Beijing"), data.F(1))
	b := rel.Insert("s1", data.S("x"), data.S("Shanghai"), data.F(2))
	order := data.NewTemporalOrder("Store", "location")
	order.AddStrict(a.TID, b.TID)
	env.Orders = func(relName, attr string) *data.TemporalOrder {
		if relName == "Store" && attr == "location" {
			return order
		}
		return nil
	}
	h := valuation(rel, nil, a, b)
	weak := &Predicate{Kind: KTemporal, T: "t", S: "s", A: "location"}
	strict := &Predicate{Kind: KTemporal, T: "t", S: "s", A: "location", Strict: true}
	if ok, _ := eval(weak, env, h); !ok {
		t.Error("weak order must hold")
	}
	if ok, _ := eval(strict, env, h); !ok {
		t.Error("strict order must hold")
	}
	// Missing order => false, no error.
	other := &Predicate{Kind: KTemporal, T: "t", S: "s", A: "name"}
	if ok, err := eval(other, env, h); ok || err != nil {
		t.Error("missing order must be false")
	}
}

func TestEvalExtraction(t *testing.T) {
	env, rel, g := testEnv(t)
	store := g.AddVertex("Huawei Flagship")
	city := g.AddVertex("Beijing")
	mustEdge(g, store, "LocationAt", city)
	env.Models.Register(ml.NewHERMatcher("", g, rel.Schema, 0.6, "name"))
	env.PathM = ml.NewPathMatcher(g, 0.3)

	tp := rel.Insert("s3", data.S("Huawei Flagship"), data.S("Beijing"), data.F(11))
	h := valuation(rel, &VertexBinding{"Wiki", store}, tp)

	pv := &Predicate{Kind: KVertex, X: "x", Graph: "Wiki"}
	if ok, _ := eval(pv, env, h); !ok {
		t.Error("vertex binding must satisfy vertex()")
	}
	pvWrong := &Predicate{Kind: KVertex, X: "x", Graph: "Other"}
	if ok, _ := eval(pvWrong, env, h); ok {
		t.Error("wrong graph must fail vertex()")
	}
	pher := &Predicate{Kind: KHER, T: "t", X: "x"}
	if ok, err := eval(pher, env, h); err != nil || !ok {
		t.Errorf("HER: %v %v", ok, err)
	}
	pmatch := &Predicate{Kind: KMatch, T: "t", A: "location", X: "x", Path: kg.Path{"LocationAt"}}
	if ok, err := eval(pmatch, env, h); err != nil || !ok {
		t.Errorf("match: %v %v", ok, err)
	}
	pval := &Predicate{Kind: KVal, T: "t", A: "location", X: "x", Path: kg.Path{"LocationAt"}}
	if ok, err := eval(pval, env, h); err != nil || !ok {
		t.Errorf("val check: %v %v", ok, err)
	}
}

func TestEvalCorrAndPredict(t *testing.T) {
	env, rel, _ := testEnv(t)
	for i := 0; i < 10; i++ {
		rel.Insert("e", data.S("Huawei"), data.S("Beijing"), data.F(5))
	}
	mc := ml.NewCorrelationModel("M_c", rel.Schema)
	mc.Train(rel.Tuples)
	env.Corr["M_c"] = mc
	env.Pred["M_d"] = ml.NewValuePredictor("M_d", mc, rel.Tuples)

	probe := rel.Insert("e", data.S("Huawei"), data.S("Beijing"), data.F(5))
	h := valuation(rel, nil, probe)

	pc := &Predicate{Kind: KCorr, Model: "M_c", T: "t", B: "location", C: data.S("Beijing"), Delta: 0.5}
	if ok, err := eval(pc, env, h); err != nil || !ok {
		t.Errorf("corr with candidate: %v %v", ok, err)
	}
	pcCur := &Predicate{Kind: KCorr, Model: "M_c", T: "t", B: "location", Delta: 0.5}
	if ok, err := eval(pcCur, env, h); err != nil || !ok {
		t.Errorf("corr with current value: %v %v", ok, err)
	}
	pd := &Predicate{Kind: KPredict, Model: "M_d", T: "t", B: "location"}
	if ok, err := eval(pd, env, h); err != nil || !ok {
		t.Errorf("predict check: %v %v", ok, err)
	}
}

func TestPredicateString(t *testing.T) {
	cases := []struct {
		p    Predicate
		want string
	}{
		{Predicate{Kind: KConst, Op: Eq, T: "t", A: "loc", C: data.S("Beijing")}, "t.loc = 'Beijing'"},
		{Predicate{Kind: KAttr, Op: Neq, T: "t", A: "a", S: "s", B: "b"}, "t.a != s.b"},
		{Predicate{Kind: KEID, Op: Eq, T: "t", S: "s"}, "t.eid = s.eid"},
		{Predicate{Kind: KML, Model: "M_ER", T: "t", S: "s", As: []string{"com"}, Bs: []string{"com"}}, "M_ER(t[com], s[com])"},
		{Predicate{Kind: KTemporal, T: "t", S: "s", A: "status"}, "t <=[status] s"},
		{Predicate{Kind: KTemporal, T: "t", S: "s", A: "status", Strict: true}, "t <[status] s"},
		{Predicate{Kind: KNull, T: "t", A: "price"}, "null(t.price)"},
		{Predicate{Kind: KVertex, X: "x", Graph: "Wiki"}, "vertex(x, Wiki)"},
		{Predicate{Kind: KHER, T: "t", X: "x"}, "HER(t, x)"},
		{Predicate{Kind: KVal, T: "t", A: "location", X: "x", Path: kg.Path{"LocationAt"}}, "t.location = val(x.(LocationAt))"},
		{Predicate{Kind: KPredict, Model: "M_d", T: "t", B: "price"}, "t.price = M_d(t, price)"},
	}
	for _, c := range cases {
		if got := c.p.String(); got != c.want {
			t.Errorf("String()=%q want %q", got, c.want)
		}
	}
}

func TestVars(t *testing.T) {
	p := Predicate{Kind: KAttr, T: "t", S: "s"}
	if vs := p.Vars(); len(vs) != 2 || vs[0] != "t" || vs[1] != "s" {
		t.Errorf("vars=%v", vs)
	}
	self := Predicate{Kind: KAttr, T: "t", S: "t"}
	if vs := self.Vars(); len(vs) != 1 {
		t.Errorf("self vars=%v", vs)
	}
	her := Predicate{Kind: KHER, T: "t", X: "x"}
	if vv := her.VertexVars(); len(vv) != 1 || vv[0] != "x" {
		t.Errorf("vertex vars=%v", vv)
	}
	if !her.IsML() {
		t.Error("HER is an ML predicate")
	}
	if (&Predicate{Kind: KConst}).IsML() {
		t.Error("const is not ML")
	}
}
