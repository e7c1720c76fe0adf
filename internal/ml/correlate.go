package ml

import (
	"math"
	"sort"

	"github.com/rockclean/rock/internal/data"
)

// CorrelationModel is Mc of paper §2.3: given a partial tuple t[A̅] and a
// candidate value c for attribute B (or the current value t[B]), it returns
// the strength of the correlation between them in [0, 1]. The paper builds
// Mc from graph + language-model embeddings; this substitute estimates the
// same quantity from smoothed co-occurrence statistics (pointwise mutual
// information mapped through a sigmoid), which exercises the identical
// predicate contract Mc(t[A̅], t[B]=c) ≥ δ.
//
// Train interns every (attribute, value) cell it sees to a dense id, the
// value taken by its canonical form (data.Value.Canon, which agrees with
// data.Value.Key), so a lookup hashes no string it builds: counts are
// indexed by id and pair counts keyed by two ids packed in a uint64. A
// trained model is read-only, and safe for concurrent Strength calls.
type CorrelationModel struct {
	ModelName string
	Schema    *data.Schema

	// ids interns cells; valCount[id] counts a cell, and
	// pairCount[pairKey(a, b)] the co-occurrences of cells a and b, a's
	// attribute the lower index.
	ids       map[cell]uint32
	valCount  []float64
	pairCount map[uint64]float64
	total     float64
}

// cell is an (attribute, value) cell, the value by its canonical form.
type cell struct {
	attr int
	v    data.Canon
}

// NewCorrelationModel creates an untrained model for the schema.
func NewCorrelationModel(name string, schema *data.Schema) *CorrelationModel {
	return &CorrelationModel{ModelName: name, Schema: schema, ids: make(map[cell]uint32), pairCount: make(map[uint64]float64)}
}

// Name identifies the model inside rule text, e.g. "M_c".
func (m *CorrelationModel) Name() string { return m.ModelName }

func pairKey(a, b uint32) uint64 { return uint64(a)<<32 | uint64(b) }

// intern returns the id of cell (attr, v), assigning the next one on
// first sight.
func (m *CorrelationModel) intern(attr int, v data.Value) uint32 {
	k := cell{attr, v.Canon()}
	id, ok := m.ids[k]
	if !ok {
		id = uint32(len(m.valCount))
		m.ids[k] = id
		m.valCount = append(m.valCount, 0)
	}
	return id
}

// count returns the id and count of cell (attr, v); count 0 for a null or
// never-trained value.
func (m *CorrelationModel) count(attr int, v data.Value) (uint32, float64) {
	if v.IsNull() {
		return 0, 0
	}
	id, ok := m.ids[cell{attr, v.Canon()}]
	if !ok {
		return 0, 0
	}
	return id, m.valCount[id]
}

// Train ingests tuples (typically the validated portion of the data plus
// accumulated ground truth) and tallies value co-occurrence.
func (m *CorrelationModel) Train(tuples []*data.Tuple) {
	var ids []uint32 // the tuple's non-null cells, in attribute order
	for _, t := range tuples {
		m.total++
		ids = ids[:0]
		for i, v := range t.Values {
			if !v.IsNull() {
				id := m.intern(i, v)
				m.valCount[id]++
				ids = append(ids, id)
			}
		}
		for i, ki := range ids {
			for _, kj := range ids[i+1:] {
				m.pairCount[pairKey(ki, kj)]++
			}
		}
	}
}

// anchor is one anchor cell of a tuple: its attribute, id and count.
type anchor struct {
	attr  int
	id    uint32
	count float64
}

// Anchors are a tuple's anchor cells for one target attribute, resolved
// to ids once: scoring several candidates against one tuple (Suggest, the
// two sides of a conflict) looks each anchor up once.
type Anchors struct {
	b     int
	cells []anchor
}

// Anchors resolves t's anchors for attribute bIdx: every non-null
// attribute but bIdx, as Strength's nil anchors. A nil model has none.
func (m *CorrelationModel) Anchors(t *data.Tuple, bIdx int) Anchors {
	if m == nil {
		return Anchors{}
	}
	return Anchors{b: bIdx, cells: m.appendAnchors(make([]anchor, 0, len(t.Values)), t, nil, bIdx)}
}

// appendAnchors appends the anchor cells of t for bIdx: the attributes in
// attrs (nil: all), less bIdx, nulls and — since a near-unique key
// "co-occurs" perfectly with whatever happens to sit in its row, drowning
// the informative correlations — values seen fewer than twice.
func (m *CorrelationModel) appendAnchors(dst []anchor, t *data.Tuple, attrs []int, bIdx int) []anchor {
	add := func(ai int) {
		if ai == bIdx || ai < 0 || ai >= len(t.Values) {
			return
		}
		if id, n := m.count(ai, t.Values[ai]); n >= 2 {
			dst = append(dst, anchor{ai, id, n})
		}
	}
	if attrs == nil {
		for ai := range t.Values {
			add(ai)
		}
	} else {
		for _, ai := range attrs {
			add(ai)
		}
	}
	return dst
}

// Strength returns Mc(t[A̅], B=c): the average pair strength between each
// non-null anchor attribute value and the candidate value c for attribute
// bIdx. anchors is a set of attribute indices; pass nil for "all non-null
// attributes except bIdx".
func (m *CorrelationModel) Strength(t *data.Tuple, anchors []int, bIdx int, c data.Value) float64 {
	var buf [16]anchor
	return m.score(m.appendAnchors(buf[:0], t, anchors, bIdx), bIdx, c)
}

// StrengthAt is Strength over anchors resolved by Anchors; 0 for a nil
// model.
func (m *CorrelationModel) StrengthAt(a Anchors, c data.Value) float64 {
	if m == nil {
		return 0
	}
	return m.score(a.cells, a.b, c)
}

// score averages the smoothed PMI-derived pair strength, mapped to [0, 1],
// of c for attribute bIdx with each anchor. A candidate value observed
// fewer than twice has no statistical support: raw PMI would reward
// exactly such one-off co-occurrences (a corrupted value trivially
// "co-occurs" with its own row), so the model abstains instead.
func (m *CorrelationModel) score(anchors []anchor, bIdx int, c data.Value) float64 {
	cid, cb := m.count(bIdx, c)
	if cb < 2 || len(anchors) == 0 {
		return 0
	}
	sum := 0.0
	for _, a := range anchors {
		key := pairKey(a.id, cid)
		if a.attr > bIdx {
			key = pairKey(cid, a.id)
		}
		joint := m.pairCount[key]
		// Smoothed PMI: log P(a,b)/(P(a)P(b)); sigmoid-squashed. Conditional
		// support P(b|a) is blended in so deterministic associations score
		// near 1.
		pmi := math.Log(((joint + 0.1) / m.total) / (((a.count / m.total) * (cb / m.total)) + 1e-12))
		cond := joint / a.count
		sum += clamp01(0.5*sigmoid(pmi) + 0.5*cond)
	}
	return sum / float64(len(anchors))
}

func clamp01(x float64) float64 {
	switch {
	case x < 0:
		return 0
	case x > 1:
		return 1
	default:
		return x
	}
}

// ValuePredictor is Md of paper §2.3: given a partial tuple t[A̅] it
// suggests a value for attribute B. The paper retrieves candidates from a
// knowledge graph and ranks them with reused Mc encoders; this substitute
// retrieves candidates from the trained co-occurrence table (plus any
// caller-provided candidates, e.g. KG extractions) and ranks them by Mc
// strength — the same retrieve-then-rank structure.
type ValuePredictor struct {
	ModelName string
	Corr      *CorrelationModel
	// candidates holds the distinct observed values per attribute index,
	// sorted by key: the deterministic tie-break order.
	candidates map[int][]data.Value
}

// NewValuePredictor builds Md on top of a trained correlation model.
func NewValuePredictor(name string, corr *CorrelationModel, trained []*data.Tuple) *ValuePredictor {
	vp := &ValuePredictor{ModelName: name, Corr: corr, candidates: make(map[int][]data.Value)}
	seen := make(map[int]map[string]bool)
	for _, t := range trained {
		for i, v := range t.Values {
			if v.IsNull() {
				continue
			}
			s := seen[i]
			if s == nil {
				s = make(map[string]bool)
				seen[i] = s
			}
			if !s[v.Key()] {
				s[v.Key()] = true
				vp.candidates[i] = append(vp.candidates[i], v)
			}
		}
	}
	for _, cands := range vp.candidates {
		sortByKey(cands)
	}
	return vp
}

func sortByKey(vs []data.Value) {
	sort.Slice(vs, func(i, j int) bool { return vs[i].Key() < vs[j].Key() })
}

// Name identifies the model inside rule text, e.g. "M_d".
func (vp *ValuePredictor) Name() string { return vp.ModelName }

// Suggest returns the best value for attribute bIdx of t together with its
// strength; ok is false when no candidate clears zero strength. extra
// candidates (e.g. from KG extraction) compete with observed values.
func (vp *ValuePredictor) Suggest(t *data.Tuple, bIdx int, extra ...data.Value) (data.Value, float64, bool) {
	cands := vp.candidates[bIdx]
	if len(extra) > 0 {
		cands = append(append([]data.Value(nil), cands...), extra...)
		sortByKey(cands)
	}
	if len(cands) == 0 {
		return data.Value{}, 0, false
	}
	// Deterministic tie-break: the first best candidate in key order.
	anchors := vp.Corr.Anchors(t, bIdx)
	best, bestS := data.Value{}, -1.0
	for _, c := range cands {
		if s := vp.Corr.StrengthAt(anchors, c); s > bestS {
			best, bestS = c, s
		}
	}
	if bestS <= 0 {
		return data.Value{}, 0, false
	}
	return best, bestS, true
}
