package rock

import (
	"fmt"
	"testing"
)

// herStorePipeline is one Store tuple named name with an unknown
// location, the Wiki graph that places "Huawei Flagship" in Beijing, and
// rule ϕ7, which imputes the location of a tuple HER aligns with a vertex.
func herStorePipeline(name string) *Pipeline {
	db := NewDB()
	rel := NewRel(MustSchema("Store",
		Attribute{Name: "name", Type: TString},
		Attribute{Name: "location", Type: TString},
	))
	rel.Insert("s1", S(name), Null(TString))
	db.Add(rel)
	g := NewGraph("Wiki")
	hv := g.AddVertex("Huawei Flagship")
	bj := g.AddVertex("Beijing")
	MustEdge(g, hv, "LocationAt", bj)

	p := NewPipeline(db)
	p.RegisterGraph(g, 0.6)
	p.MustAddRule("Store(t) ^ vertex(x, Wiki) ^ HER(t, x) ^ match(t.location, x.(LocationAt)) ^ null(t.location) -> t.location = val(x.(LocationAt))")
	return p
}

// TestHERCacheFollowsRenamedTuple: HER's scores are cached by the tuple's
// values, so a delta that renames a tuple into a graph entity imputes
// exactly what a fresh pipeline over the renamed data imputes. A memo
// keyed by tuple ID kept serving the batch clean's "no match" instead.
func TestHERCacheFollowsRenamedTuple(t *testing.T) {
	p := herStorePipeline("Acme Outlet")
	rep, err := p.Clean()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Corrections) != 0 {
		t.Fatalf("batch clean of an unmatched tuple corrected %+v", rep.Corrections)
	}
	d := p.NewDelta()
	if !d.Update("Store", p.DB().Rel("Store").Tuples[0].TID, "name", S("Huawei Flagship")) {
		t.Fatal("rename failed")
	}
	got, err := d.CleanIncremental()
	if err != nil {
		t.Fatal(err)
	}

	fresh, err := herStorePipeline("Huawei Flagship").Clean()
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh.Corrections) != 1 {
		t.Fatalf("fresh pipeline imputed %+v, want one location", fresh.Corrections)
	}
	if g, w := fmt.Sprint(got), fmt.Sprint(fresh.Corrections); g != w {
		t.Errorf("delta imputed %s, fresh pipeline %s", g, w)
	}
}
