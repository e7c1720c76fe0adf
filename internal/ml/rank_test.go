package ml

import (
	"testing"

	"github.com/rockclean/rock/internal/data"
)

func personTuples() (*data.Schema, *data.Relation) {
	s := mustSchema("Person",
		data.Attribute{Name: "status", Type: data.TString},
		data.Attribute{Name: "home", Type: data.TString},
		data.Attribute{Name: "sales", Type: data.TFloat},
	)
	r := data.NewRelation(s)
	return s, r
}

func TestPairRankerCreatorCritic(t *testing.T) {
	schema, rel := personTuples()
	// Build tuples whose currency follows the monotone constraints:
	// status single -> married; sales only grows.
	var tuples []*data.Tuple
	stages := []struct {
		status string
		sales  float64
	}{
		{"single", 10}, {"single", 20}, {"married", 30}, {"married", 45}, {"married", 60},
	}
	for i, st := range stages {
		tp := rel.Insert("e", data.S(st.status), data.S("addr"+string(rune('a'+i))), data.F(st.sales))
		tuples = append(tuples, tp)
	}
	critics := []CurrencyConstraint{
		NewMonotoneValueConstraint(schema, "status", []string{"single", "married"}),
		NewMonotoneNumericConstraint(schema, "sales"),
	}
	// Seed with two hand-labelled pairs; creator-critic augments the rest.
	seed := []RankedPair{
		{Older: tuples[0], Newer: tuples[2], Attr: "status", Leq: true},
		{Older: tuples[1], Newer: tuples[3], Attr: "sales", Leq: true},
	}
	ranker := NewPairRanker("M_rank", schema)
	ranker.AttrOrderHints["status"] = map[string]int{"single": 0, "married": 1}
	TrainRanker(ranker, "Person", tuples, []string{"status", "sales"}, seed, critics, 3)

	// Gold: all chronologically ordered pairs.
	var gold []RankedPair
	for i := 0; i < len(tuples); i++ {
		for j := i + 1; j < len(tuples); j++ {
			gold = append(gold, RankedPair{Older: tuples[i], Newer: tuples[j], Attr: "sales", Leq: true})
			gold = append(gold, RankedPair{Older: tuples[j], Newer: tuples[i], Attr: "sales", Leq: false})
		}
	}
	if f := fMeasure(ranker, "Person", gold); f < 0.8 {
		t.Errorf("ranker F-measure=%f want >= 0.8 (paper reports ~0.80)", f)
	}
}

func TestMonotoneValueConstraint(t *testing.T) {
	schema, rel := personTuples()
	single := rel.Insert("e", data.S("single"), data.S("x"), data.F(1))
	married := rel.Insert("e", data.S("married"), data.S("y"), data.F(2))
	unknown := rel.Insert("e", data.S("divorced?"), data.S("z"), data.F(3))
	c := NewMonotoneValueConstraint(schema, "status", []string{"single", "married"})
	if c.Verdict(single, married, "status") != 1 {
		t.Error("single -> married must be entailed")
	}
	if c.Verdict(married, single, "status") != -1 {
		t.Error("married -> single must be refuted")
	}
	if c.Verdict(single, unknown, "status") != 0 {
		t.Error("unknown value must be silent")
	}
	if c.Verdict(single, married, "home") != 0 {
		t.Error("other attribute must be silent")
	}
}

func TestMonotoneNumericConstraint(t *testing.T) {
	schema, rel := personTuples()
	lo := rel.Insert("e", data.S("s"), data.S("x"), data.F(10))
	hi := rel.Insert("e", data.S("s"), data.S("y"), data.F(20))
	null := rel.Insert("e", data.S("s"), data.S("z"), data.Null(data.TFloat))
	c := NewMonotoneNumericConstraint(schema, "sales")
	if c.Verdict(lo, hi, "sales") != 1 || c.Verdict(hi, lo, "sales") != -1 {
		t.Error("numeric monotonicity verdicts wrong")
	}
	if c.Verdict(lo, null, "sales") != 0 {
		t.Error("null must be silent")
	}
}

func TestRankerTimestampFeatureDominates(t *testing.T) {
	schema, relR := personTuples()
	tr := data.NewTemporalRelation(relR)
	older := relR.Insert("e", data.S("s"), data.S("a"), data.F(1))
	newer := relR.Insert("e", data.S("s"), data.S("b"), data.F(1))
	tr.Stamp(older.TID, "home", 100)
	tr.Stamp(newer.TID, "home", 200)
	ranker := NewPairRanker("M_rank", schema)
	ranker.Stamps = tr
	seed := []RankedPair{{Older: older, Newer: newer, Attr: "home", Leq: true}}
	TrainRanker(ranker, "Person", nil, nil, seed, nil, 1)
	if ranker.RankLeq("Person", older, newer, "home") <= ranker.RankLeq("Person", newer, older, "home") {
		t.Error("timestamped order must be learned")
	}
}

// fMeasure evaluates the ranker against gold pairs: precision/recall of the
// Leq decision at confidence 0.5.
func fMeasure(r *PairRanker, rel string, gold []RankedPair) float64 {
	var tp, fp, fn float64
	for _, p := range gold {
		pred := r.RankLeq(rel, p.Older, p.Newer, p.Attr) >= 0.5
		switch {
		case pred && p.Leq:
			tp++
		case pred && !p.Leq:
			fp++
		case !pred && p.Leq:
			fn++
		}
	}
	if tp == 0 {
		return 0
	}
	prec := tp / (tp + fp)
	rec := tp / (tp + fn)
	return 2 * prec * rec / (prec + rec)
}
