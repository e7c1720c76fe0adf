package baselines

import (
	"fmt"
	"testing"

	"github.com/rockclean/rock/internal/chase"
	"github.com/rockclean/rock/internal/data"
	"github.com/rockclean/rock/internal/must"
	"github.com/rockclean/rock/internal/predicate"
	"github.com/rockclean/rock/internal/quality"
	"github.com/rockclean/rock/internal/ree"
	"github.com/rockclean/rock/internal/truth"
	"github.com/rockclean/rock/internal/workload"
)

func bankBench(t *testing.T, workers int) *Bench {
	t.Helper()
	ds := workload.Bank(workload.Config{N: 250, Seed: 9})
	return NewBench(ds, workers)
}

func salesBench(t *testing.T) *Bench {
	t.Helper()
	ds := workload.Sales(workload.Config{N: 250, Seed: 9})
	return NewBench(ds, 4)
}

func detectF1(t *testing.T, sys System, b *Bench) float64 {
	t.Helper()
	cells, dups, err := sys.Detect(b)
	if err != nil {
		t.Fatalf("%s detect: %v", sys.Name(), err)
	}
	return quality.ScoreDetection(b.DS.Gold, cells, dups).F1()
}

func TestRockDetectionBeatsBaselines(t *testing.T) {
	rock := detectF1(t, Rock(), bankBench(t, 4))
	t5 := detectF1(t, NewT5s(), bankBench(t, 4))
	rb := detectF1(t, NewRB(), bankBench(t, 4))
	t.Logf("detection F1: Rock=%.3f T5s=%.3f RB=%.3f", rock, t5, rb)
	if rock < 0.7 {
		t.Errorf("Rock detection F1 too low: %.3f", rock)
	}
	if rock <= t5 || rock <= rb {
		t.Errorf("Rock must beat ML baselines: rock=%.3f t5=%.3f rb=%.3f", rock, t5, rb)
	}
}

func TestRockNoMLLosesAccuracy(t *testing.T) {
	full := detectF1(t, Rock(), bankBench(t, 4))
	noml := detectF1(t, RockNoML(), bankBench(t, 4))
	t.Logf("detection F1: Rock=%.3f Rock_noML=%.3f", full, noml)
	if noml >= full {
		t.Errorf("dropping ML rules must hurt: %.3f vs %.3f", noml, full)
	}
}

func TestSQLEngineMatchesRockAccuracyOnDetection(t *testing.T) {
	// SparkSQL/Presto run the same rules, so detection quality matches
	// Rock; only cost differs (Exp-2 measures their time, not F1).
	b1 := bankBench(t, 4)
	rockCells, rockDups, err := Rock().Detect(b1)
	if err != nil {
		t.Fatal(err)
	}
	b2 := bankBench(t, 4)
	sqlCells, sqlDups, err := NewSparkSQL().Detect(b2)
	if err != nil {
		t.Fatal(err)
	}
	f1Rock := quality.ScoreDetection(b1.DS.Gold, rockCells, rockDups).F1()
	f1SQL := quality.ScoreDetection(b2.DS.Gold, sqlCells, sqlDups).F1()
	// Blocking may lose a candidate pair or two; allow a small gap.
	if f1SQL < f1Rock-0.1 || f1SQL > f1Rock+0.1 {
		t.Errorf("same rules should give similar F1: rock=%.3f sql=%.3f", f1Rock, f1SQL)
	}
}

func TestRockCorrectionBeatsBaselines(t *testing.T) {
	score := func(sys System) quality.PRF {
		b := bankBench(t, 4)
		corr, err := sys.Correct(b)
		if err != nil {
			t.Fatalf("%s: %v", sys.Name(), err)
		}
		return quality.ScoreCorrection(b.DS.Gold, corr, b.RawValue).Overall()
	}
	rock := score(Rock())
	t5 := score(NewT5s())
	rb := score(NewRB())
	t.Logf("correction F1: Rock=%.3f T5s=%.3f RB=%.3f", rock.F1(), t5.F1(), rb.F1())
	if rock.F1() < 0.7 {
		t.Errorf("Rock correction F1 too low: %.3f", rock.F1())
	}
	if rock.F1() <= t5.F1() || rock.F1() <= rb.F1() {
		t.Error("Rock must beat ML baselines on correction")
	}
}

func TestRockNoCMissesInteractionFixes(t *testing.T) {
	score := func(sys System) float64 {
		b := bankBench(t, 4)
		corr, err := sys.Correct(b)
		if err != nil {
			t.Fatalf("%s: %v", sys.Name(), err)
		}
		return quality.ScoreCorrection(b.DS.Gold, corr, b.RawValue).Overall().F1()
	}
	full := score(Rock())
	noC := score(RockNoC())
	seq := score(RockSeq())
	t.Logf("correction F1: Rock=%.3f Rock_seq=%.3f Rock_noC=%.3f", full, seq, noC)
	if noC > full {
		t.Errorf("single pass cannot beat the fixpoint: %.3f vs %.3f", noC, full)
	}
	// Rock and Rock_seq both chase to fixpoint: same accuracy (paper:
	// "Rock has the same F-Measure as Rock_seq").
	if seq < full-0.02 || seq > full+0.02 {
		t.Errorf("Rock_seq must match Rock: %.3f vs %.3f", seq, full)
	}
}

// TestSeqScheduleMatchesUnified: Rock_seq's task loop, driving one engine
// task by task, reaches exactly the fix set of Rock's single fixpoint;
// Rock_noC's single pass runs on the same engine entry.
func TestSeqScheduleMatchesUnified(t *testing.T) {
	run := func(v *RockVariant) string {
		schema := must.Schema("Person",
			data.Attribute{Name: "LN", Type: data.TString},
			data.Attribute{Name: "FN", Type: data.TString},
			data.Attribute{Name: "home", Type: data.TString},
			data.Attribute{Name: "status", Type: data.TString},
		)
		rel := data.NewRelation(schema)
		db := data.NewDatabase()
		db.Add(rel)
		rel.Insert("a", data.S("X"), data.S("Y"), data.S("addr1"), data.S("single"))
		rel.Insert("b", data.S("X"), data.S("Y"), data.S("addr1"), data.S("married"))
		rel.Insert("c", data.S("X"), data.S("Y"), data.Null(data.TString), data.S("married"))
		rules := []*ree.Rule{
			must.Rule("Person(t) ^ Person(s) ^ t.LN = s.LN ^ t.FN = s.FN ^ t.home = s.home -> t.eid = s.eid", db),
			must.Rule("Person(t) ^ Person(s) ^ t.LN = s.LN ^ null(s.home) -> s.home = t.home", db),
		}
		rules[0].ID, rules[1].ID = "er", "mi"
		eng := chase.New(predicate.NewEnv(db), rules, truth.NewFixSet(), chase.DefaultOptions())
		if err := v.chase(eng, rules); err != nil {
			t.Fatalf("%s: %v", v.Name(), err)
		}
		return eng.Truth().Snapshot()
	}
	unified, seq := run(Rock()), run(RockSeq())
	if unified != seq {
		t.Errorf("Rock and Rock_seq must converge to the same result:\n u=%s\n s=%s", unified, seq)
	}
	// Single pass may miss interaction-dependent fixes: MI runs after ER
	// once, so the merge c's imputed home enables never runs.
	if noC := run(RockNoC()); noC == unified {
		t.Log("single pass happened to converge on this tiny input (acceptable)")
	}
}

func TestSalesTDOnlyRockFamily(t *testing.T) {
	b := salesBench(t)
	corr, err := Rock().Correct(b)
	if err != nil {
		t.Fatal(err)
	}
	s := quality.ScoreCorrection(b.DS.Gold, corr, b.RawValue)
	t.Logf("sales per-task F1: ER=%.3f CR=%.3f MI=%.3f TD=%.3f",
		s.ER.F1(), s.CR.F1(), s.MI.F1(), s.TD.F1())
	if s.TD.TP == 0 {
		t.Error("Rock must deduce temporal orders on Sales")
	}
	if s.CR.F1() < 0.6 {
		t.Errorf("sales CR too weak: %.3f", s.CR.F1())
	}
}

func TestESDiscoversWithoutPruning(t *testing.T) {
	b := bankBench(t, 1)
	es := NewES()
	rules, err := es.Discover(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) == 0 {
		t.Error("ES should still find rules")
	}
	for _, r := range rules {
		if r.HasML() {
			t.Error("ES mines purely, no ML predicates")
		}
	}
}

func TestBenchIsolation(t *testing.T) {
	ds := workload.Bank(workload.Config{N: 100, Seed: 3})
	before := ds.DB.TupleCount()
	b := NewBench(ds, 2)
	if _, err := NewSparkSQL().Correct(b); err != nil {
		t.Fatal(err)
	}
	if ds.DB.TupleCount() != before {
		t.Error("bench mutated the source dataset")
	}
	// The original data values are untouched even though SQL writes in place.
	orig := workload.Bank(workload.Config{N: 100, Seed: 3})
	for relName, rel := range ds.DB.Relations {
		oRel := orig.DB.Rel(relName)
		for i, tp := range rel.Tuples {
			for j := range tp.Values {
				if !tp.Values[j].Equal(oRel.Tuples[i].Values[j]) {
					t.Fatalf("source mutated at %s[%d]", relName, i)
				}
			}
		}
	}
}

// TestSQLCorrectSeesItsOwnWrites: the SQL engine corrects across rounds on
// one executor, writing through SetValue. Round 1's second rule sets
// R[0].b = B2; round 2's join on b must see that write and equate c across
// the two rows, not compare the interned ids of the old values.
func TestSQLCorrectSeesItsOwnWrites(t *testing.T) {
	rel := data.NewRelation(must.Schema("R",
		data.Attribute{Name: "k", Type: data.TString},
		data.Attribute{Name: "b", Type: data.TString},
		data.Attribute{Name: "c", Type: data.TString},
	))
	rel.Insert("x", data.S("x"), data.S("B1"), data.S("C1"))
	rel.Insert("y", data.S("y"), data.S("B2"), data.S("C2"))
	db := data.NewDatabase()
	db.Add(rel)
	b := &Bench{Env: predicate.NewEnv(db), Rules: []*ree.Rule{
		must.Rule("R(t) ^ R(s) ^ t.b = s.b -> t.c = s.c", db),
		must.Rule("R(t) ^ t.k = 'x' -> t.b = 'B2'", db),
	}}
	out, err := NewSparkSQL().Correct(b)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := out.Cells[quality.CellKey("R", 0, "b")]; !ok {
		t.Fatal("the constant rule never wrote R[0].b")
	}
	_, c0 := out.Cells[quality.CellKey("R", 0, "c")]
	_, c1 := out.Cells[quality.CellKey("R", 1, "c")]
	if !c0 && !c1 {
		t.Fatalf("the join on b never saw R[0].b = B2: corrections %v", out.Cells)
	}
}

// TestExtractCorrectionsMatchesCellScan: the EID-keyed diff finds exactly
// the cells a scan of every tuple and attribute against U finds, on fix
// sets with merged entity classes.
func TestExtractCorrectionsMatchesCellScan(t *testing.T) {
	for _, ds := range workload.All(workload.Config{N: 250, Seed: 9}) {
		eng := chase.New(ds.BuildEnv(), ds.Rules, ds.Gamma.Clone(), chase.DefaultOptions())
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		u := eng.Truth()
		want := map[string]data.Value{}
		for name, rel := range ds.DB.Relations {
			for _, tp := range rel.Tuples {
				for i, a := range rel.Schema.Attrs {
					if v, ok := u.Cell(name, tp.EID, a.Name); ok && !v.Equal(tp.Values[i]) {
						want[quality.CellKey(name, tp.TID, a.Name)] = v
					}
				}
			}
		}
		got := ExtractCorrections(u, ds.DB, ds.Gamma).Cells
		if len(want) == 0 || len(got) != len(want) {
			t.Fatalf("%s: %d corrected cells, the scan %d", ds.Name, len(got), len(want))
		}
		for k, v := range want {
			if w, ok := got[k]; !ok || !w.Equal(v) || w.Kind() != v.Kind() {
				t.Fatalf("%s: cell %s is %v, the scan %v", ds.Name, k, w, v)
			}
		}
	}
}

// TestMLBaselinesReproducible: T5s and RB draw their training split from
// one seeded generator, so five runs over the same Bank data score the
// same — detection and correction alike. Walking the relations in map
// order once made the split, and the scores, change from run to run.
func TestMLBaselinesReproducible(t *testing.T) {
	ds := workload.Bank(workload.Config{N: 60, Seed: 2024})
	for _, mk := range []func() System{func() System { return NewT5s() }, func() System { return NewRB() }} {
		var first string
		for run := 0; run < 5; run++ {
			sys := mk()
			det := detectF1(t, sys, NewBench(ds, 4))
			b := NewBench(ds, 4)
			corr, err := sys.Correct(b)
			if err != nil {
				t.Fatal(err)
			}
			got := fmt.Sprintf("detect %.6f, correct %.6f", det, quality.ScoreCorrection(b.DS.Gold, corr, b.RawValue).Overall().F1())
			if run == 0 {
				first = got
			} else if got != first {
				t.Fatalf("%s run %d: %s, run 0: %s", sys.Name(), run, got, first)
			}
		}
	}
}
