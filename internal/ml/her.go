package ml

import (
	"github.com/rockclean/rock/internal/data"
	"github.com/rockclean/rock/internal/kg"
)

// HERMatcher implements heterogeneous entity resolution HER(t, x) of paper
// §2.3: deciding whether a relational tuple and a knowledge-graph vertex
// refer to the same entity. The paper uses parametric simulation [31] with
// an LSTM; this substitute compares the tuple's attribute values with the
// vertex's label and neighbourhood features via embedding similarity,
// honouring the same Boolean contract.
//
// A matcher is a Model over the tuple's raw values (left) and the vertex
// (right, HERVertex): its score depends on nothing else, so the
// predication layer caches it by value like any pair model, and a tuple
// whose values change keys a fresh score.
type HERMatcher struct {
	ModelName string
	Graph     *kg.Graph
	Schema    *data.Schema
	Threshold float64
	// KeyAttrs are the attributes compared against the vertex label (the
	// entity name); when empty, all string attributes are used.
	KeyAttrs []string
}

// HERName is the registry name of the HER matcher serving relation rel;
// HERName("") names one serving every relation without a matcher of its
// own. One name per relation gives each matcher its own cache entries.
func HERName(rel string) string { return "HER:" + rel }

// HERVertex is the right-hand vector of a HER model call on vertex v.
func HERVertex(v kg.VertexID) []data.Value { return []data.Value{data.I(int64(v))} }

// NewHERMatcher builds the matcher of relation rel (named HERName(rel))
// against one graph.
func NewHERMatcher(rel string, g *kg.Graph, schema *data.Schema, threshold float64, keyAttrs ...string) *HERMatcher {
	return &HERMatcher{
		ModelName: HERName(rel), Graph: g, Schema: schema, Threshold: threshold,
		KeyAttrs: keyAttrs,
	}
}

// Name implements Model.
func (h *HERMatcher) Name() string { return h.ModelName }

// Confidence implements Model: it scores the correspondence of the tuple
// values left with the vertex HERVertex encodes in right, as the max
// similarity of any key attribute to the vertex label, blended with
// neighbourhood overlap.
func (h *HERMatcher) Confidence(left, right []data.Value) float64 {
	if len(right) != 1 {
		return 0
	}
	return h.confidence(left, kg.VertexID(right[0].Int()))
}

// Predict implements Model.
func (h *HERMatcher) Predict(left, right []data.Value) bool {
	return h.Confidence(left, right) >= h.Threshold
}

// DecisionThreshold implements Thresholder.
func (h *HERMatcher) DecisionThreshold() float64 { return h.Threshold }

func (h *HERMatcher) confidence(vals []data.Value, v kg.VertexID) float64 {
	label := h.Graph.Label(v)
	if label == "" {
		return 0
	}
	attrs := h.KeyAttrs
	if len(attrs) == 0 {
		for _, a := range h.Schema.Attrs {
			if a.Type == data.TString {
				attrs = append(attrs, a.Name)
			}
		}
	}
	best := 0.0
	for _, a := range attrs {
		i := h.Schema.Index(a)
		if i < 0 || i >= len(vals) || vals[i].IsNull() {
			continue
		}
		if s := StringSim(vals[i].Str(), label); s > best {
			best = s
		}
	}
	// Neighbourhood bonus: vertex property values appearing among the
	// tuple's values raise confidence.
	neigh := h.Graph.Neighborhood(v)
	if len(neigh) > 0 {
		match := 0.0
		for _, f := range neigh {
			// f is "label=value"; compare the value part with tuple cells.
			eq := 0.0
			for _, val := range vals {
				if val.IsNull() {
					continue
				}
				if s := StringSim(val.String(), afterEq(f)); s > eq {
					eq = s
				}
			}
			match += eq
		}
		best = 0.7*best + 0.3*(match/float64(len(neigh)))
	}
	return clamp01(best)
}

func afterEq(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '=' {
			return s[i+1:]
		}
	}
	return s
}

// PathMatcher implements match(t.A, x.ρ) of paper §2.3: whether the label
// path ρ from vertex x encodes the A-attribute of tuple t. The paper trains
// an LSTM for this; the substitute checks that (a) the path exists from x
// and (b) the path's label sequence is similar to the attribute name — the
// same decision surface at the contract level.
type PathMatcher struct {
	Graph     *kg.Graph
	Threshold float64
}

// NewPathMatcher builds a matcher over one graph.
func NewPathMatcher(g *kg.Graph, threshold float64) *PathMatcher {
	return &PathMatcher{Graph: g, Threshold: threshold}
}

// Match reports whether ρ from x encodes attribute attr.
func (p *PathMatcher) Match(attr string, x kg.VertexID, path kg.Path) bool {
	if !p.Graph.HasMatch(x, path) {
		return false
	}
	// Attribute-name/path-label similarity: "location" vs "(LocationAt)".
	joined := ""
	for _, l := range path {
		joined += l + " "
	}
	return StringSim(attr, joined) >= p.Threshold
}
