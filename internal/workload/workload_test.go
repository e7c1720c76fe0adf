package workload

import (
	"math/rand"
	"testing"

	"github.com/rockclean/rock/internal/data"
	"github.com/rockclean/rock/internal/ml"
	"github.com/rockclean/rock/internal/ree"
)

func TestBankGenerator(t *testing.T) {
	ds := Bank(Config{N: 300, Seed: 1})
	if ds.DB.Rel("Customer") == nil || ds.DB.Rel("Company") == nil || ds.DB.Rel("Payment") == nil {
		t.Fatal("missing relations")
	}
	if ds.Gold.Total() == 0 {
		t.Fatal("no errors injected")
	}
	if len(ds.Gold.DupPairs) == 0 || len(ds.Gold.WrongCells) == 0 || len(ds.Gold.MissingCells) == 0 {
		t.Error("all error kinds must be present")
	}
	if len(ds.Tasks) != 4 {
		t.Error("bank has four tasks")
	}
	for _, r := range ds.Rules {
		if err := r.Validate(ds.DB); err != nil {
			t.Errorf("invalid rule: %v", err)
		}
	}
	// Task rule filtering works.
	if got := ds.RulesFor("TPA"); len(got) != 1 || got[0].ID != "tpa-fd" {
		t.Errorf("TPA rules: %v", got)
	}
	if got := ds.RulesFor("ESClean"); len(got) != len(ds.Rules) {
		t.Error("*Clean task must cover all rules")
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := Bank(Config{N: 200, Seed: 7})
	b := Bank(Config{N: 200, Seed: 7})
	if a.DB.TupleCount() != b.DB.TupleCount() {
		t.Fatal("tuple counts differ across runs")
	}
	if a.Gold.Total() != b.Gold.Total() {
		t.Fatal("gold labels differ across runs")
	}
	c := Bank(Config{N: 200, Seed: 8})
	if a.Gold.Total() == c.Gold.Total() && a.DB.TupleCount() == c.DB.TupleCount() {
		t.Log("different seeds produced identical totals (possible but unlikely)")
	}
}

func TestLogisticsGenerator(t *testing.T) {
	ds := Logistics(Config{N: 300, Seed: 1})
	if ds.Graph == nil || ds.Graph.NumVertices() == 0 {
		t.Fatal("logistics needs the knowledge graph")
	}
	if len(ds.Gold.MissingCells) == 0 {
		t.Error("RR task needs missing areas")
	}
	env := ds.BuildEnv()
	if _, err := env.Models.Get(ml.HERName("Order")); env.Graphs["GeoKG"] == nil || env.PathM == nil || err != nil {
		t.Error("env must wire the graph machinery")
	}
}

func TestSalesGeneratorTemporal(t *testing.T) {
	ds := Sales(Config{N: 300, Seed: 1})
	if len(ds.Gold.OrderPairs["CustomerInfo.tier"]) == 0 {
		t.Fatal("sales needs TD gold pairs")
	}
	env := ds.BuildEnv()
	if env.Ranker == nil {
		t.Error("sales env must train the ranker")
	}
	// Timestamps entail some seeded orders.
	o := env.Orders("CustomerInfo", "tier")
	if o == nil || len(o.Pairs()) == 0 {
		t.Error("timestamp-seeded orders missing")
	}
}

func TestSeedGammaConsistentWithGold(t *testing.T) {
	ds := Bank(Config{N: 300, Seed: 2, GammaFraction: 0.5})
	if ds.Gamma == nil {
		t.Fatal("gamma not seeded")
	}
	cells := 0
	ds.Gamma.ForEachCell(func(_, _, _ string, _ data.Value) { cells++ })
	if cells == 0 {
		t.Fatal("gamma must contain validated cells")
	}
	// Every gamma cell agrees with the gold truth.
	for key, want := range ds.Gold.WrongCells {
		rel, tid, attr, ok := parseCellKey(key)
		if !ok {
			t.Fatalf("bad cell key %q", key)
		}
		tp := ds.DB.Rel(rel).Get(tid)
		if v, ok := ds.Gamma.Cell(rel, tp.EID, attr); ok && !v.Equal(want) {
			t.Errorf("gamma contradicts gold at %s", key)
		}
	}
}

func TestEcommerceMatchesPaperTables(t *testing.T) {
	ds := Ecommerce()
	if ds.DB.Rel("Person").Len() != 5 || ds.DB.Rel("Store").Len() != 5 || ds.DB.Rel("Trans").Len() != 5 {
		t.Fatal("tables 1-3 must have five rows each")
	}
	if !ds.Gold.DupPairs[[2]string{"p1", "p2"}] || !ds.Gold.DupPairs[[2]string{"p3", "p4"}] {
		t.Error("paper duplicates missing from gold")
	}
	for _, r := range ds.Rules {
		if err := r.Validate(ds.DB); err != nil {
			t.Errorf("rule %s invalid: %v", r.ID, err)
		}
	}
	// Rule tasks cover all four cleaning tasks.
	seen := map[ree.Task]bool{}
	for _, r := range ds.Rules {
		seen[r.TaskOf()] = true
	}
	for _, task := range []ree.Task{ree.TaskER, ree.TaskCR, ree.TaskTD, ree.TaskMI} {
		if !seen[task] {
			t.Errorf("no %s rule in the e-commerce set", task)
		}
	}
}

func TestParseCellKey(t *testing.T) {
	rel, tid, attr, ok := parseCellKey("Person[12].home")
	if !ok || rel != "Person" || tid != 12 || attr != "home" {
		t.Errorf("parse: %s %d %s %v", rel, tid, attr, ok)
	}
	for _, bad := range []string{"", "x", "R[.a", "R[z].a", "R[1]a"} {
		if _, _, _, ok := parseCellKey(bad); ok {
			t.Errorf("bad key %q parsed", bad)
		}
	}
}

func TestTypoChangesString(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	changed := 0
	for i := 0; i < 50; i++ {
		s := "Beijing West Road"
		if typo(rng, s) != s {
			changed++
		}
	}
	if changed < 40 {
		t.Errorf("typo too often a no-op: %d/50", changed)
	}
	if typo(rng, "a") == "a" {
		t.Error("short strings must still change")
	}
}
