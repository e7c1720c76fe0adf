package ree

import (
	"testing"

	"github.com/rockclean/rock/internal/data"
	"github.com/rockclean/rock/internal/kg"
	"github.com/rockclean/rock/internal/ml"
	"github.com/rockclean/rock/internal/predicate"
)

func TestRelOfGraphOf(t *testing.T) {
	r := MustParse("Store(t) ^ vertex(x, Wiki) ^ HER(t, x) -> t.location = val(x.(LocationAt))", nil)
	if r.RelOf("t") != "Store" || r.RelOf("nope") != "" {
		t.Error("RelOf")
	}
	if va := r.VertexAtoms; len(va) != 1 || va[0].Var != "x" || va[0].Graph != "Wiki" {
		t.Errorf("vertex variable x must bind graph Wiki: %v", va)
	}
	if got := r.VertexAtoms[0].String(); got != "vertex(x, Wiki)" {
		t.Errorf("vertex atom string: %q", got)
	}
}

func TestReferenceSemanticsWithVertexAtoms(t *testing.T) {
	schema := mustSchema("Store",
		data.Attribute{Name: "name", Type: data.TString},
		data.Attribute{Name: "location", Type: data.TString},
	)
	rel := data.NewRelation(schema)
	rel.Insert("s1", data.S("Huawei Flagship"), data.S("Shanghai")) // wrong: Wiki says Beijing
	db := data.NewDatabase()
	db.Add(rel)
	env := predicate.NewEnv(db)
	g := kg.New("Wiki")
	store := g.AddVertex("Huawei Flagship")
	beijing := g.AddVertex("Beijing")
	mustEdge(g, store, "LocationAt", beijing)
	env.Graphs["Wiki"] = g
	env.Models.Register(ml.NewHERMatcher("Store", g, schema, 0.6, "name"))
	env.PathM = ml.NewPathMatcher(g, 0.3)

	r := MustParse("Store(t) ^ vertex(x, Wiki) ^ HER(t, x) ^ match(t.location, x.(LocationAt)) -> t.location = val(x.(LocationAt))", db)
	r.ID = "phi7"
	vs, err := r.Violations(env, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The store matches its Wiki vertex but its stored location disagrees
	// with the extracted value: one violation (bound to the store vertex).
	if len(vs) != 1 {
		t.Fatalf("violations=%d want 1", len(vs))
	}
	// Measure over vertex atoms also enumerates.
	supp, conf, err := r.Measure(env)
	if err != nil {
		t.Fatal(err)
	}
	if supp != 0 || conf != 0 {
		t.Errorf("all matches are violations: supp=%f conf=%f", supp, conf)
	}
}

func TestMeasureMissingGraphErrors(t *testing.T) {
	db := data.NewDatabase()
	db.Add(data.NewRelation(mustSchema("R", data.Attribute{Name: "a", Type: data.TString})))
	db.Rel("R").Insert("e", data.S("x"))
	env := predicate.NewEnv(db)
	r := MustParse("R(t) ^ vertex(x, Ghost) ^ HER(t, x) -> t.a = val(x.(P))", nil)
	if _, _, err := r.Measure(env); err == nil {
		t.Error("missing graph must error")
	}
}

func TestValidateAttributeChecksMLVectors(t *testing.T) {
	db := data.NewDatabase()
	db.Add(data.NewRelation(mustSchema("R",
		data.Attribute{Name: "a", Type: data.TString},
		data.Attribute{Name: "b", Type: data.TString})))
	good := MustParse("R(t) ^ R(s) ^ M_x(t[a,b], s[a,b]) -> t.a = s.a", nil)
	if err := good.Validate(db); err != nil {
		t.Errorf("valid ML vector rejected: %v", err)
	}
	bad := MustParse("R(t) ^ R(s) ^ M_x(t[a,ghost], s[a,b]) -> t.a = s.a", nil)
	if err := bad.Validate(db); err == nil {
		t.Error("unknown attr in ML vector must fail")
	}
}

func TestTaskOfCorrAndPredictConsequences(t *testing.T) {
	corr := MustParse("R(t) ^ t.a = 'x' -> t.b = M_d(t, b)", nil)
	if corr.TaskOf() != TaskMI {
		t.Error("M_d consequence is MI")
	}
	val := MustParse("R(t) ^ vertex(x, G) ^ HER(t, x) -> t.a = val(x.(P))", nil)
	if val.TaskOf() != TaskMI {
		t.Error("val consequence is MI")
	}
	rank := MustParse("R(t) ^ R(s) ^ t.a = s.a -> t <[b] s", nil)
	if rank.TaskOf() != TaskTD {
		t.Error("strict temporal consequence is TD")
	}
	if TaskER.String() != "ER" || TaskCR.String() != "CR" || TaskTD.String() != "TD" || TaskMI.String() != "MI" {
		t.Error("task names")
	}
}

func TestParseRankStrictRoundTrip(t *testing.T) {
	r := MustParse("R(t) ^ R(s) ^ M_rank(t, s, <[v]) -> t <[v] s", nil)
	if !r.X[0].Strict || !r.P0.Strict {
		t.Error("strict flags lost")
	}
	if _, err := Parse(r.String(), nil); err != nil {
		t.Errorf("strict rank round trip: %v", err)
	}
}
