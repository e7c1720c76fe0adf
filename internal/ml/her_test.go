package ml

import (
	"testing"

	"github.com/rockclean/rock/internal/data"
	"github.com/rockclean/rock/internal/kg"
)

func storeGraph() (*kg.Graph, kg.VertexID, kg.VertexID) {
	g := kg.New("Wiki")
	huawei := g.AddVertex("Huawei Flagship")
	beijing := g.AddVertex("Beijing")
	nike := g.AddVertex("Nike China")
	shanghai := g.AddVertex("Shanghai")
	mustEdge(g, huawei, "LocationAt", beijing)
	mustEdge(g, nike, "LocationAt", shanghai)
	return g, huawei, nike
}

func TestHERMatcher(t *testing.T) {
	g, huawei, nike := storeGraph()
	schema := mustSchema("Store",
		data.Attribute{Name: "name", Type: data.TString},
		data.Attribute{Name: "location", Type: data.TString},
	)
	rel := data.NewRelation(schema)
	hTuple := rel.Insert("s3", data.S("Huawei Flagship"), data.S("Beijing"))
	nTuple := rel.Insert("s5", data.S("Nike China"), data.Null(data.TString))
	h := NewHERMatcher("Store", g, schema, 0.6, "name")
	if h.Name() != HERName("Store") {
		t.Errorf("name %q", h.Name())
	}
	if c := h.Confidence(hTuple.Values, HERVertex(huawei)); c < h.Threshold {
		t.Errorf("huawei tuple/vertex must match: conf=%f", c)
	}
	if c := h.Confidence(hTuple.Values, HERVertex(nike)); c >= h.Threshold {
		t.Errorf("huawei tuple must not match nike vertex: conf=%f", c)
	}
	if !h.Predict(nTuple.Values, HERVertex(nike)) || h.Predict(nTuple.Values, HERVertex(huawei)) {
		t.Error("nike tuple must match the nike vertex only")
	}
}

func TestHERMatcherAllStringFallback(t *testing.T) {
	g, huawei, _ := storeGraph()
	schema := mustSchema("Store", data.Attribute{Name: "name", Type: data.TString})
	rel := data.NewRelation(schema)
	tp := rel.Insert("s", data.S("Huawei Flagship"))
	h := NewHERMatcher("Store", g, schema, 0.6) // no key attrs: use all strings
	if !h.Predict(tp.Values, HERVertex(huawei)) {
		t.Error("fallback attrs must still match")
	}
}

func TestPathMatcher(t *testing.T) {
	g, huawei, _ := storeGraph()
	pm := NewPathMatcher(g, 0.3)
	if !pm.Match("location", huawei, kg.Path{"LocationAt"}) {
		t.Error("location attr must match LocationAt path")
	}
	if pm.Match("location", huawei, kg.Path{"Missing"}) {
		t.Error("nonexistent path must not match")
	}
	if pm.Match("accu_sales", huawei, kg.Path{"LocationAt"}) {
		t.Error("dissimilar attribute must not match")
	}
}
