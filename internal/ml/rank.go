package ml

import (
	"github.com/rockclean/rock/internal/data"
)

// Ranker is the contract of the Mrank temporal ranking model of paper §2.2:
// given two tuples of the same relation and an attribute, it predicts
// whether t1 ⪯_A t2 (weak) or t1 ≺_A t2 (strict), and exposes a confidence
// score in [0, 1] used for conflict resolution (paper §4.2, TD case).
type Ranker interface {
	// Name identifies the ranker inside rule text, e.g. "M_rank".
	Name() string
	// RankLeq returns the confidence that older ⪯_A newer for the attribute.
	RankLeq(rel string, older, newer *data.Tuple, attr string) float64
}

// PairRanker is the stand-in for the paper's neural pairwise ranking model:
// a logistic model over hand-crafted currency features of a tuple pair. It
// is trained with the creator–critic loop of [42] (see TrainRanker): the
// creator ranks pairs, the critic validates the ranking against currency
// constraints and derives more ranked pairs, which become augmented
// training data.
type PairRanker struct {
	RankerName string
	Schema     *data.Schema
	model      *LogisticRegression
	// AttrOrderHints maps attr -> value -> monotone rank; derived from
	// currency constraints such as "single precedes married" (rule ϕ4).
	AttrOrderHints map[string]map[string]int
	// Stamps provides per-cell timestamps where available.
	Stamps *data.TemporalRelation
}

// NewPairRanker creates an untrained ranker for the schema.
func NewPairRanker(name string, schema *data.Schema) *PairRanker {
	return &PairRanker{
		RankerName:     name,
		Schema:         schema,
		model:          NewLogisticRegression(numRankFeatures),
		AttrOrderHints: make(map[string]map[string]int),
	}
}

// Name implements Ranker.
func (r *PairRanker) Name() string { return r.RankerName }

const numRankFeatures = 6

// features encodes the pair (older, newer) for attribute attr:
//
//	0: timestamp delta sign (if both stamped)
//	1: monotone hint delta sign (from currency constraints)
//	2: completeness delta (newer tuples tend to be more complete)
//	3: numeric delta sign of the attribute itself (accumulating attributes)
//	4: string-length delta (normalised; richer values tend to be newer)
//	5: bias-ish constant for calibration
func (r *PairRanker) features(older, newer *data.Tuple, attr string) []float64 {
	f := make([]float64, numRankFeatures)
	ai := r.Schema.Index(attr)
	if r.Stamps != nil {
		t1, ok1 := r.Stamps.Timestamp(older.TID, attr)
		t2, ok2 := r.Stamps.Timestamp(newer.TID, attr)
		if ok1 && ok2 {
			f[0] = signF(float64(t2 - t1))
		}
	}
	if ai >= 0 {
		vo, vn := older.Values[ai], newer.Values[ai]
		if hints := r.AttrOrderHints[attr]; hints != nil && !vo.IsNull() && !vn.IsNull() {
			ho, ok1 := hints[vo.String()]
			hn, ok2 := hints[vn.String()]
			if ok1 && ok2 {
				f[1] = signF(float64(hn - ho))
			}
		}
		if !vo.IsNull() && !vn.IsNull() {
			if vo.Kind() == data.TInt || vo.Kind() == data.TFloat {
				f[3] = signF(vn.Float() - vo.Float())
			}
			lo, ln := len(vo.String()), len(vn.String())
			if lo+ln > 0 {
				f[4] = float64(ln-lo) / float64(lo+ln)
			}
		}
	}
	f[2] = completeness(newer) - completeness(older)
	f[5] = 1
	return f
}

func completeness(t *data.Tuple) float64 {
	if len(t.Values) == 0 {
		return 0
	}
	n := 0
	for _, v := range t.Values {
		if !v.IsNull() {
			n++
		}
	}
	return float64(n) / float64(len(t.Values))
}

func signF(x float64) float64 {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	default:
		return 0
	}
}

// RankLeq implements Ranker.
func (r *PairRanker) RankLeq(rel string, older, newer *data.Tuple, attr string) float64 {
	return r.model.Score(r.features(older, newer, attr))
}

// RankedPair is a labelled training instance: Older ⪯_attr Newer holds iff
// Leq is true.
type RankedPair struct {
	Older, Newer *data.Tuple
	Attr         string
	Leq          bool
}

// CurrencyConstraint validates a proposed ranking, playing the critic of
// the creator–critic framework. Verdict returns +1 if older ⪯ newer is
// entailed, -1 if refuted, and 0 if the constraint is silent on the pair.
type CurrencyConstraint interface {
	Verdict(older, newer *data.Tuple, attr string) int
}

// MonotoneValueConstraint encodes "attribute A changes monotonically along
// Order": e.g. marital status moves single → married (paper rule ϕ4).
type MonotoneValueConstraint struct {
	Attr  string
	Order []string // values in old-to-new order
	idx   map[string]int
	ai    int
}

// NewMonotoneValueConstraint builds the constraint for the schema.
func NewMonotoneValueConstraint(schema *data.Schema, attr string, order []string) *MonotoneValueConstraint {
	m := &MonotoneValueConstraint{Attr: attr, Order: order, idx: make(map[string]int), ai: schema.Index(attr)}
	for i, v := range order {
		m.idx[v] = i
	}
	return m
}

// Verdict implements CurrencyConstraint.
func (m *MonotoneValueConstraint) Verdict(older, newer *data.Tuple, attr string) int {
	if attr != m.Attr || m.ai < 0 {
		return 0
	}
	vo, vn := older.Values[m.ai], newer.Values[m.ai]
	if vo.IsNull() || vn.IsNull() {
		return 0
	}
	io, ok1 := m.idx[vo.String()]
	in, ok2 := m.idx[vn.String()]
	if !ok1 || !ok2 {
		return 0
	}
	switch {
	case io <= in:
		return 1
	default:
		return -1
	}
}

// MonotoneNumericConstraint encodes "numeric attribute A never decreases"
// (e.g. accumulated sales, paper rule ϕ6).
type MonotoneNumericConstraint struct {
	Attr string
	ai   int
}

// NewMonotoneNumericConstraint builds the constraint for the schema.
func NewMonotoneNumericConstraint(schema *data.Schema, attr string) *MonotoneNumericConstraint {
	return &MonotoneNumericConstraint{Attr: attr, ai: schema.Index(attr)}
}

// Verdict implements CurrencyConstraint.
func (m *MonotoneNumericConstraint) Verdict(older, newer *data.Tuple, attr string) int {
	if attr != m.Attr || m.ai < 0 {
		return 0
	}
	vo, vn := older.Values[m.ai], newer.Values[m.ai]
	if vo.IsNull() || vn.IsNull() {
		return 0
	}
	switch {
	case vo.Float() <= vn.Float():
		return 1
	default:
		return -1
	}
}

// TrainRanker runs the creator–critic loop (paper §4.2): starting from the
// seed pairs, the creator (the logistic model) proposes rankings over
// candidate pairs; the critic (the currency constraints) validates or
// refutes them; validated/refuted pairs augment the training set; the model
// is refit. rounds is typically 2–4.
func TrainRanker(r *PairRanker, rel string, tuples []*data.Tuple, attrs []string,
	seed []RankedPair, critics []CurrencyConstraint, rounds int) {

	train := append([]RankedPair(nil), seed...)
	fit := func() {
		xs := make([][]float64, 0, 2*len(train))
		ys := make([]bool, 0, 2*len(train))
		for _, p := range train {
			xs = append(xs, r.features(p.Older, p.Newer, p.Attr))
			ys = append(ys, p.Leq)
			// Mirror the pair to teach antisymmetry on strict instances.
			xs = append(xs, r.features(p.Newer, p.Older, p.Attr))
			ys = append(ys, !p.Leq)
		}
		r.model = NewLogisticRegression(numRankFeatures)
		r.model.Fit(xs, ys, 7)
	}
	fit()

	for round := 0; round < rounds; round++ {
		added := 0
		for _, attr := range attrs {
			for i := 0; i < len(tuples); i++ {
				for j := i + 1; j < len(tuples); j++ {
					older, newer := tuples[i], tuples[j]
					if r.RankLeq(rel, older, newer, attr) < 0.5 {
						older, newer = newer, older
					}
					// Critic validates the creator's proposal.
					for _, c := range critics {
						switch c.Verdict(older, newer, attr) {
						case 1:
							train = append(train, RankedPair{older, newer, attr, true})
							added++
						case -1:
							train = append(train, RankedPair{older, newer, attr, false})
							added++
						}
					}
				}
			}
		}
		if added == 0 {
			break
		}
		fit()
	}
}
