package ml

import (
	"fmt"
	"sync"

	"github.com/rockclean/rock/internal/data"
)

// Model is a Boolean ML predicate M(t[A̅], s[B̅]) as embedded in REE++s
// (paper §2.1): any classifier whose output is transformed to a Boolean,
// typically by thresholding a strength score. Confidence exposes the raw
// strength in [0, 1] for conflict resolution (paper §4.2).
type Model interface {
	// Name identifies the model inside rule text, e.g. "M_ER".
	Name() string
	// Predict returns the Boolean decision for the attribute vectors.
	Predict(left, right []data.Value) bool
	// Confidence returns the decision strength in [0, 1].
	Confidence(left, right []data.Value) float64
}

// Thresholder is implemented by models whose Boolean decision is
// "Confidence >= threshold". PredicatedModel uses it to serve Predict
// straight from the confidence cache for any such model, not just the
// built-in ones.
type Thresholder interface {
	// DecisionThreshold returns the confidence cut-off for Predict.
	DecisionThreshold() float64
}

// Registry resolves model names appearing in parsed rules to Model
// implementations. It is safe for concurrent use.
type Registry struct {
	mu     sync.RWMutex
	models map[string]Model
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{models: make(map[string]Model)} }

// Register adds (or replaces) a model under its own name.
func (r *Registry) Register(m Model) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.models[m.Name()] = m
}

// Get resolves a model by name.
func (r *Registry) Get(name string) (Model, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	m, ok := r.models[name]
	if !ok {
		return nil, fmt.Errorf("ml: unknown model %q", name)
	}
	return m, nil
}

// Names lists registered model names (unordered).
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.models))
	for n := range r.models {
		names = append(names, n)
	}
	return names
}

// SimilarityMatcher is the stand-in for Bert-style ER/matching models: it
// embeds both attribute vectors and thresholds their cosine similarity.
// With well-separated data it behaves like a high-precision matcher; with
// noisy data it exhibits the realistic false positives/negatives that the
// paper's rules compensate for with extra logic conditions (property (4) of
// §2.1).
type SimilarityMatcher struct {
	ModelName string
	Threshold float64
}

// NewSimilarityMatcher creates a matcher with the given decision threshold
// in [0, 1]; typical ER thresholds are 0.80–0.92.
func NewSimilarityMatcher(name string, threshold float64) *SimilarityMatcher {
	return &SimilarityMatcher{ModelName: name, Threshold: threshold}
}

// Name implements Model.
func (m *SimilarityMatcher) Name() string { return m.ModelName }

// Confidence implements Model. Single-attribute string pairs score with
// the blended StringSim (cosine + edit similarity, robust to single
// typos); multi-attribute vectors score with the cosine of their averaged
// embeddings. Nulls are skipped on both sides.
func (m *SimilarityMatcher) Confidence(left, right []data.Value) float64 {
	if len(left) == 1 && len(right) == 1 && !left[0].IsNull() && !right[0].IsNull() {
		return StringSim(left[0].String(), right[0].String())
	}
	lv := EmbedValues(left)
	rv := EmbedValues(right)
	c := Cosine(lv, rv)
	if c < 0 {
		return 0
	}
	return c
}

// Predict implements Model.
func (m *SimilarityMatcher) Predict(left, right []data.Value) bool {
	return m.Confidence(left, right) >= m.Threshold
}

// DecisionThreshold implements Thresholder.
func (m *SimilarityMatcher) DecisionThreshold() float64 { return m.Threshold }

// FuncModel adapts an arbitrary confidence function to the Model interface;
// handy in tests and for wrapping trained classifiers.
type FuncModel struct {
	ModelName string
	Threshold float64
	Score     func(left, right []data.Value) float64
}

// Name implements Model.
func (m *FuncModel) Name() string { return m.ModelName }

// Confidence implements Model.
func (m *FuncModel) Confidence(left, right []data.Value) float64 {
	return m.Score(left, right)
}

// Predict implements Model.
func (m *FuncModel) Predict(left, right []data.Value) bool {
	return m.Score(left, right) >= m.Threshold
}

// DecisionThreshold implements Thresholder.
func (m *FuncModel) DecisionThreshold() float64 { return m.Threshold }

// NewCachedModel wraps a model with a private value-keyed memo: a
// registry model keeps its scores across calls even when no predication
// layer serves it. Detection and the chase Unwrap it and re-Wrap the
// model in their own layer.
func NewCachedModel(inner Model) *PredicatedModel { return NewPredication().Wrap(inner) }
