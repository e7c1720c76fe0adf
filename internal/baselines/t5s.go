package baselines

import (
	"math/rand"
	"sort"

	"github.com/rockclean/rock/internal/data"
	"github.com/rockclean/rock/internal/ml"
	"github.com/rockclean/rock/internal/quality"
	"github.com/rockclean/rock/internal/ree"
)

// T5s is the pre-trained-language-model baseline [20]: a per-cell error
// classifier over text-embedding features. The stand-in preserves the
// structural properties the paper reports:
//
//   - it "has to tune millions of parameters": inference runs a wide
//     dense layer per cell, so scanning a dataset is expensive even
//     though each pass is a single scan;
//   - it is strong on textual anomalies (typos shift the embedding) but
//     weak on numeric attributes (Figures 4(d)-(f), 4(j)): numbers embed
//     by their digit strings, which carry no arithmetic signal;
//   - correction suggests the nearest clean value in embedding space,
//     which cannot reconstruct numeric totals.
type T5s struct {
	// HiddenDim is the simulated model width (cost knob, default 256).
	HiddenDim int

	heads map[string]*ml.LogisticRegression // per relation.attr
	dense [][]float64                       // simulated pretrained layer
	// cleanValues indexes training-split clean values per rel.attr for
	// correction suggestions.
	cleanValues map[string][]data.Value
	// colFreq holds per-column value frequencies: rare exact values are a
	// strong textual-anomaly signal (typos are near-unique), the one
	// advantage an LM-style model has over pure logic on text.
	colFreq map[string]map[string]int
	colSize map[string]int
}

// NewT5s creates the baseline.
func NewT5s() *T5s { return &T5s{HiddenDim: 256} }

// Name implements System.
func (*T5s) Name() string { return "T5s" }

// featDim is the classifier input width: embedding + length stats +
// column-frequency signal.
const t5FeatDim = ml.EmbedDim + 4

// encode runs the "transformer": the cell embedding pushed through the
// wide dense layer (the cost) and summarised back to the feature width.
// colKey selects the column-frequency signal ("" disables it).
func (t *T5s) encode(v data.Value, colKey string) []float64 {
	emb := ml.Embed(v.String())
	if t.dense == nil {
		rng := rand.New(rand.NewSource(99))
		t.dense = make([][]float64, t.HiddenDim)
		for i := range t.dense {
			row := make([]float64, ml.EmbedDim)
			for j := range row {
				row[j] = rng.NormFloat64() / 16
			}
			t.dense[i] = row
		}
	}
	// Wide projection + pooling: this loop is the deliberate inference
	// cost of a large parameter count.
	pooled := make([]float64, ml.EmbedDim)
	for i := 0; i < t.HiddenDim; i++ {
		act := 0.0
		for j := 0; j < ml.EmbedDim; j++ {
			act += t.dense[i][j] * emb[j]
		}
		if act < 0 {
			act = 0
		}
		pooled[i%ml.EmbedDim] += act
	}
	out := make([]float64, t5FeatDim)
	copy(out, pooled)
	s := v.String()
	out[ml.EmbedDim] = float64(len(s)) / 32
	digits := 0
	for _, c := range s {
		if c >= '0' && c <= '9' {
			digits++
		}
	}
	if len(s) > 0 {
		out[ml.EmbedDim+1] = float64(digits) / float64(len(s))
	}
	if v.IsNull() {
		out[ml.EmbedDim+2] = 1
	}
	if colKey != "" && t.colFreq != nil {
		if n := t.colSize[colKey]; n > 0 {
			out[ml.EmbedDim+3] = float64(t.colFreq[colKey][v.Key()]) / float64(n)
		}
	}
	return out
}

// Discover implements System: "training" the per-attribute heads on the
// labelled split (the paper fine-tunes T5 on validation data).
func (t *T5s) Discover(b *Bench) ([]*ree.Rule, error) {
	rng := rand.New(rand.NewSource(b.Seed))
	t.heads = make(map[string]*ml.LogisticRegression)
	t.cleanValues = make(map[string][]data.Value)
	t.colFreq = make(map[string]map[string]int)
	t.colSize = make(map[string]int)
	goldCells := b.DS.Gold.ErrorCells()
	for relName, rel := range b.Env.DB.Relations {
		for ai, attr := range rel.Schema.Attrs {
			key := relName + "." + attr.Name
			freq := make(map[string]int)
			for _, tp := range rel.Tuples {
				freq[tp.Values[ai].Key()]++
			}
			t.colFreq[key] = freq
			t.colSize[key] = rel.Len()
		}
	}
	const fineTuneEpochs = 20
	// Relations in name order: rng draws the training split, so the
	// split must not follow map iteration order.
	for _, relName := range b.Env.DB.Names() {
		rel := b.Env.DB.Rel(relName)
		for ai, attr := range rel.Schema.Attrs {
			key := relName + "." + attr.Name
			var cells []data.Value
			var ys []bool
			for _, tp := range rel.Tuples {
				if rng.Float64() > b.TrainFraction {
					continue
				}
				bad := goldCells[quality.CellKey(relName, tp.TID, attr.Name)]
				cells = append(cells, tp.Values[ai])
				ys = append(ys, bad)
				if !bad && !tp.Values[ai].IsNull() {
					t.cleanValues[key] = append(t.cleanValues[key], tp.Values[ai])
				}
			}
			head := ml.NewLogisticRegression(t5FeatDim)
			head.Epochs = 1
			// Fine-tuning re-runs the full forward pass every epoch — the
			// per-epoch re-encoding below is the deliberate cost of tuning
			// a large parameter count (the paper's T5s "cannot finish
			// training within one day" at production scale).
			for epoch := 0; epoch < fineTuneEpochs; epoch++ {
				xs := make([][]float64, len(cells))
				for i, v := range cells {
					xs[i] = t.encode(v, key)
				}
				head.Fit(xs, ys, b.Seed+int64(epoch))
			}
			t.heads[key] = head
		}
	}
	return nil, nil
}

func (t *T5s) ensureTrained(b *Bench) error {
	if t.heads == nil {
		_, err := t.Discover(b)
		return err
	}
	return nil
}

// Detect implements System: classify every cell.
func (t *T5s) Detect(b *Bench) (map[string]bool, map[[2]string]bool, error) {
	if err := t.ensureTrained(b); err != nil {
		return nil, nil, err
	}
	cells := make(map[string]bool)
	for relName, rel := range b.Env.DB.Relations {
		for _, tp := range rel.Tuples {
			for ai, attr := range rel.Schema.Attrs {
				head := t.heads[relName+"."+attr.Name]
				if head == nil {
					continue
				}
				if head.Predict(t.encode(tp.Values[ai], relName+"."+attr.Name)) {
					cells[quality.CellKey(relName, tp.TID, attr.Name)] = true
				}
			}
		}
	}
	// T5s performs no entity resolution pairing in this configuration.
	return cells, map[[2]string]bool{}, nil
}

// Correct implements System: for each detected cell, generate the nearest
// clean training value in embedding space.
func (t *T5s) Correct(b *Bench) (*quality.Corrections, error) {
	cells, _, err := t.Detect(b)
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
		rel, tid, attr, ok := parseCellKey(key)
		if !ok {
			continue
		}
		r := b.Env.DB.Rel(rel)
		if r == nil {
			continue
		}
		cur, _ := r.Value(tid, attr)
		cands := t.cleanValues[rel+"."+attr]
		if len(cands) == 0 {
			continue
		}
		best, bestSim := data.Value{}, -1.0
		for _, c := range cands {
			if c.Equal(cur) {
				continue
			}
			s := ml.StringSim(cur.String(), c.String())
			if s > bestSim {
				best, bestSim = c, s
			}
		}
		if !best.IsNull() {
			out.AddCell(rel, tid, attr, best)
		}
	}
	return out, nil
}

func parseCellKey(key string) (rel string, tid int, attr string, ok bool) {
	lb, rb := -1, -1
	for i := 0; i < len(key); i++ {
		if key[i] == '[' && lb < 0 {
			lb = i
		}
		if key[i] == ']' {
			rb = i
			break
		}
	}
	if lb < 0 || rb < lb || rb+1 >= len(key) || key[rb+1] != '.' {
		return "", 0, "", false
	}
	n := 0
	for i := lb + 1; i < rb; i++ {
		if key[i] < '0' || key[i] > '9' {
			return "", 0, "", false
		}
		n = n*10 + int(key[i]-'0')
	}
	return key[:lb], n, key[rb+2:], true
}
