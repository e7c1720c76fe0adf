package baselines

import (
	"math/rand"
	"sort"

	"github.com/rockclean/rock/internal/data"
	"github.com/rockclean/rock/internal/ml"
	"github.com/rockclean/rock/internal/quality"
	"github.com/rockclean/rock/internal/ree"
)

// RB is the Baran-style holistic cleaning baseline [65]: per-cell feature
// engineering (value-context co-occurrence statistics plus format
// descriptors) feeding a boosted tree-ensemble error model, and repair by
// the majority value among context-matching tuples. The stand-in keeps
// the paper-reported profile: feature generation is the dominant cost,
// context voting repairs FD-governed (often numeric) cells well, and
// free-text cells — whose contexts rarely repeat — remain weak
// (Figures 4(d)-(f), Exp-3: "RB is not effective for textual values").
type RB struct {
	models map[string]*ml.StumpEnsemble // per rel.attr
	// context[rel.attr][ctxAttrIdx|ctxValue] -> value counts of the target
	// attribute, built during the (costly) feature-generation pass. Repair
	// aggregates votes across all single-attribute contexts of the tuple
	// (Baran's value models).
	context map[string]map[string]map[string]valCount
}

type valCount struct {
	v data.Value
	n int
}

// NewRB creates the baseline.
func NewRB() *RB { return &RB{} }

// Name implements System.
func (*RB) Name() string { return "RB" }

const rbFeatDim = 8

// features is the engineered per-cell representation. The context scan —
// counting how often the cell's value co-occurs with every other
// attribute value of the tuple across the whole relation — is the
// deliberate cost centre.
func (rb *RB) features(rel *data.Relation, relName string, tp *data.Tuple, ai int) []float64 {
	v := tp.Values[ai]
	f := make([]float64, rbFeatDim)
	s := v.String()
	f[0] = float64(len(s)) / 32
	digits, letters := 0, 0
	for _, c := range s {
		switch {
		case c >= '0' && c <= '9':
			digits++
		case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z':
			letters++
		}
	}
	if len(s) > 0 {
		f[1] = float64(digits) / float64(len(s))
		f[2] = float64(letters) / float64(len(s))
	}
	if v.IsNull() {
		f[3] = 1
	}
	// Co-occurrence support: how many other tuples share (context attr
	// value, this value)? Low support marks outliers. This scan is O(n)
	// per cell — the expensive feature generation of the paper.
	support, contexts := 0.0, 0.0
	for aj := range rel.Schema.Attrs {
		if aj == ai || tp.Values[aj].IsNull() {
			continue
		}
		contexts++
		for _, other := range rel.Tuples {
			if other.TID == tp.TID {
				continue
			}
			if other.Values[aj].Equal(tp.Values[aj]) && other.Values[ai].Equal(v) {
				support++
			}
		}
	}
	if contexts > 0 {
		f[4] = support / (contexts * float64(rel.Len()))
	}
	// Value frequency within the column.
	freq := 0
	for _, other := range rel.Tuples {
		if other.Values[ai].Equal(v) {
			freq++
		}
	}
	f[5] = float64(freq) / float64(rel.Len()+1)
	if v.Kind() == data.TFloat || v.Kind() == data.TInt {
		f[6] = 1
	}
	f[7] = 1
	return f
}

// pairContextKeys lists the single-attribute context keys of a cell: one
// per other non-null attribute value of the tuple.
func pairContextKeys(tp *data.Tuple, ai int) []string {
	var keys []string
	for aj, v := range tp.Values {
		if aj == ai || v.IsNull() {
			continue
		}
		keys = append(keys, string(rune('A'+aj))+"\x1c"+v.Key())
	}
	return keys
}

// Discover implements System: feature generation + ensemble training on
// the labelled split.
func (rb *RB) Discover(b *Bench) ([]*ree.Rule, error) {
	rng := rand.New(rand.NewSource(b.Seed + 5))
	rb.models = make(map[string]*ml.StumpEnsemble)
	rb.context = make(map[string]map[string]map[string]valCount)
	goldCells := b.DS.Gold.ErrorCells()
	// Relations in name order: rng draws the training split, so the
	// split must not follow map iteration order.
	for _, relName := range b.Env.DB.Names() {
		rel := b.Env.DB.Rel(relName)
		for ai, attr := range rel.Schema.Attrs {
			key := relName + "." + attr.Name
			ctx := make(map[string]map[string]valCount)
			rb.context[key] = ctx
			var xs [][]float64
			var ys []float64
			for _, tp := range rel.Tuples {
				bad := goldCells[quality.CellKey(relName, tp.TID, attr.Name)]
				if !bad && !tp.Values[ai].IsNull() {
					for _, ck := range pairContextKeys(tp, ai) {
						m := ctx[ck]
						if m == nil {
							m = make(map[string]valCount)
							ctx[ck] = m
						}
						vc := m[tp.Values[ai].Key()]
						vc.v = tp.Values[ai]
						vc.n++
						m[tp.Values[ai].Key()] = vc
					}
				}
				if rng.Float64() > b.TrainFraction {
					continue
				}
				xs = append(xs, rb.features(rel, relName, tp, ai))
				if bad {
					ys = append(ys, 1)
				} else {
					ys = append(ys, 0)
				}
			}
			e := ml.NewStumpEnsemble(12)
			e.Fit(xs, ys)
			rb.models[key] = e
		}
	}
	return nil, nil
}

func (rb *RB) ensureTrained(b *Bench) error {
	if rb.models == nil {
		_, err := rb.Discover(b)
		return err
	}
	return nil
}

// Detect implements System: score every cell with the ensemble.
func (rb *RB) Detect(b *Bench) (map[string]bool, map[[2]string]bool, error) {
	if err := rb.ensureTrained(b); err != nil {
		return nil, nil, err
	}
	cells := make(map[string]bool)
	for relName, rel := range b.Env.DB.Relations {
		for _, tp := range rel.Tuples {
			for ai, attr := range rel.Schema.Attrs {
				m := rb.models[relName+"."+attr.Name]
				if m == nil {
					continue
				}
				if m.Predict(rb.features(rel, relName, tp, ai)) >= 0.5 {
					cells[quality.CellKey(relName, tp.TID, attr.Name)] = true
				}
			}
		}
	}
	// RB does not support ER or TD (paper §6: "TD and ER of RB are not
	// shown because they do not support these operations").
	return cells, map[[2]string]bool{}, nil
}

// Correct implements System: majority vote among tuples sharing the
// cell's full context.
func (rb *RB) Correct(b *Bench) (*quality.Corrections, error) {
	cells, _, err := rb.Detect(b)
	if err != nil {
		return nil, err
	}
	out := quality.NewCorrections()
	keys := make([]string, 0, len(cells))
	for k := range cells {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		relName, tid, attr, ok := parseCellKey(key)
		if !ok {
			continue
		}
		rel := b.Env.DB.Rel(relName)
		if rel == nil {
			continue
		}
		tp := rel.Get(tid)
		ai := rel.Schema.Index(attr)
		if tp == nil || ai < 0 {
			continue
		}
		ctx := rb.context[relName+"."+attr]
		if ctx == nil {
			continue
		}
		// Aggregate votes across every single-attribute context of the
		// tuple; the value consistent with the most contexts wins.
		tally := map[string]valCount{}
		for _, ck := range pairContextKeys(tp, ai) {
			for vk, vc := range ctx[ck] {
				agg := tally[vk]
				agg.v = vc.v
				agg.n += vc.n
				tally[vk] = agg
			}
		}
		bestN := 0
		bestKey := ""
		for vk, vc := range tally {
			if vc.v.Equal(tp.Values[ai]) {
				continue
			}
			if vc.n > bestN || (vc.n == bestN && vk < bestKey) {
				bestN, bestKey = vc.n, vk
			}
		}
		if bestN > 0 {
			out.AddCell(relName, tid, attr, tally[bestKey].v)
		}
	}
	return out, nil
}
