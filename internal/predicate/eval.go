package predicate

import (
	"fmt"

	"github.com/rockclean/rock/internal/crystal"
	"github.com/rockclean/rock/internal/data"
	"github.com/rockclean/rock/internal/kg"
	"github.com/rockclean/rock/internal/ml"
)

// Binding attaches a tuple variable to a concrete tuple of a relation.
type Binding struct {
	Rel   string
	Tuple *data.Tuple
}

// VertexBinding attaches a vertex variable to a vertex of a graph.
type VertexBinding struct {
	Graph string
	ID    kg.VertexID
}

// Valuation is a mapping h of tuple variables to tuples and vertex
// variables to vertices (paper §2.1 and §2.3 semantics).
type Valuation struct {
	Tuples   map[string]Binding
	Vertices map[string]VertexBinding
}

// NewValuation creates an empty valuation.
func NewValuation() *Valuation {
	return &Valuation{Tuples: make(map[string]Binding), Vertices: make(map[string]VertexBinding)}
}

// Bind maps a tuple variable.
func (v *Valuation) Bind(varName, rel string, t *data.Tuple) *Valuation {
	v.Tuples[varName] = Binding{Rel: rel, Tuple: t}
	return v
}

// BindVertex maps a vertex variable.
func (v *Valuation) BindVertex(varName, graph string, id kg.VertexID) *Valuation {
	v.Vertices[varName] = VertexBinding{Graph: graph, ID: id}
	return v
}

// Env carries everything predicate evaluation may need: the database, the
// registered ML models, the temporal orders, and the knowledge graphs.
// ValueOf, when non-nil, overrides attribute access — the chase supplies a
// hook that reads validated values from the fix set U instead of raw data
// (paper §4.1 condition (1)).
type Env struct {
	DB     *data.Database
	Models *ml.Registry
	Ranker ml.Ranker
	Corr   map[string]*ml.CorrelationModel
	Pred   map[string]*ml.ValuePredictor
	PathM  *ml.PathMatcher
	Graphs map[string]*kg.Graph

	// Orders resolves the temporal order for rel.attr; nil means "no
	// temporal information" and temporal predicates evaluate to false.
	Orders func(rel, attr string) *data.TemporalOrder

	// ValueOf returns the (possibly validated) value of t[attr]. ok=false
	// means the value is not available/validated. When nil, the raw tuple
	// value is used (detection semantics).
	ValueOf func(rel string, t *data.Tuple, attr string) (data.Value, bool)

	// Columns is the environment's dictionary-encoded column cache. Every
	// executor over this env, or over a shallow copy of it, reads and
	// fills it, so detection, the chase and every later delta encode a
	// column once. Nil gives each executor a private cache.
	Columns *crystal.Cache
}

// NewEnv creates an evaluation environment over a database with empty
// model tables.
func NewEnv(db *data.Database) *Env {
	return &Env{
		DB:      db,
		Models:  ml.NewRegistry(),
		Corr:    make(map[string]*ml.CorrelationModel),
		Pred:    make(map[string]*ml.ValuePredictor),
		Graphs:  make(map[string]*kg.Graph),
		Columns: crystal.NewCache(),
	}
}

// value reads t[attr] through the ValueOf hook or directly.
func (e *Env) value(rel string, t *data.Tuple, attr string) (data.Value, bool) {
	if e.ValueOf != nil {
		return e.ValueOf(rel, t, attr)
	}
	return e.rawValue(rel, t, attr)
}

// rawValue reads t[attr] from the tuple itself, bypassing any ValueOf hook.
func (e *Env) rawValue(rel string, t *data.Tuple, attr string) (data.Value, bool) {
	r := e.DB.Rel(rel)
	if r == nil {
		return data.Value{}, false
	}
	i := r.Schema.Index(attr)
	if i < 0 || i >= len(t.Values) {
		return data.Value{}, false
	}
	return t.Values[i], true
}

// values reads a vector t[attrs].
func (e *Env) values(rel string, t *data.Tuple, attrs []string) []data.Value {
	out := make([]data.Value, len(attrs))
	for i, a := range attrs {
		v, ok := e.value(rel, t, a)
		if !ok {
			v = data.Value{}
		}
		out[i] = v
	}
	return out
}

// schemaIndex resolves attr's index in rel's schema.
func (e *Env) schemaIndex(rel, attr string) int {
	r := e.DB.Rel(rel)
	if r == nil {
		return -1
	}
	return r.Schema.Index(attr)
}

// Eval evaluates h |= p. An error indicates a malformed predicate or a
// missing model/graph — not a false predicate.
func (p *Predicate) Eval(env *Env, h *Valuation) (bool, error) {
	switch p.Kind {
	case KConst:
		b, ok := h.Tuples[p.T]
		if !ok {
			return false, unbound(p.T)
		}
		v, ok := env.value(b.Rel, b.Tuple, p.A)
		if !ok {
			return false, nil
		}
		if v.IsNull() {
			// Null compares unknown — only "= null"/"!= null" are decidable
			// through the dedicated KNull predicate.
			return false, nil
		}
		return p.Op.Apply(v, p.C), nil

	case KAttr:
		bt, ok := h.Tuples[p.T]
		if !ok {
			return false, unbound(p.T)
		}
		bs, ok := h.Tuples[p.S]
		if !ok {
			return false, unbound(p.S)
		}
		vt, ok1 := env.value(bt.Rel, bt.Tuple, p.A)
		vs, ok2 := env.value(bs.Rel, bs.Tuple, p.B)
		if !ok1 || !ok2 || vt.IsNull() || vs.IsNull() {
			return false, nil
		}
		return p.Op.Apply(vt, vs), nil

	case KEID:
		bt, ok := h.Tuples[p.T]
		if !ok {
			return false, unbound(p.T)
		}
		bs, ok := h.Tuples[p.S]
		if !ok {
			return false, unbound(p.S)
		}
		eq := bt.Tuple.EID == bs.Tuple.EID
		if p.Op == Neq {
			return !eq, nil
		}
		return eq, nil

	case KML:
		bt, ok := h.Tuples[p.T]
		if !ok {
			return false, unbound(p.T)
		}
		bs, ok := h.Tuples[p.S]
		if !ok {
			return false, unbound(p.S)
		}
		m, err := env.Models.Get(p.Model)
		if err != nil {
			return false, err
		}
		left := env.values(bt.Rel, bt.Tuple, p.As)
		right := env.values(bs.Rel, bs.Tuple, p.Bs)
		return m.Predict(left, right), nil

	case KTemporal:
		bt, ok := h.Tuples[p.T]
		if !ok {
			return false, unbound(p.T)
		}
		bs, ok := h.Tuples[p.S]
		if !ok {
			return false, unbound(p.S)
		}
		if env.Orders == nil {
			return false, nil
		}
		o := env.Orders(bt.Rel, p.A)
		if o == nil {
			return false, nil
		}
		if p.Strict {
			return o.Less(bt.Tuple.TID, bs.Tuple.TID), nil
		}
		return o.Leq(bt.Tuple.TID, bs.Tuple.TID), nil

	case KRank:
		bt, ok := h.Tuples[p.T]
		if !ok {
			return false, unbound(p.T)
		}
		bs, ok := h.Tuples[p.S]
		if !ok {
			return false, unbound(p.S)
		}
		if env.Ranker == nil {
			return false, fmt.Errorf("predicate %s: no ranker registered", p)
		}
		leq := env.Ranker.RankLeq(bt.Rel, bt.Tuple, bs.Tuple, p.A)
		if p.Strict {
			rev := env.Ranker.RankLeq(bt.Rel, bs.Tuple, bt.Tuple, p.A)
			return leq >= 0.5 && rev < 0.5, nil
		}
		return leq >= 0.5, nil

	case KNull, KNotNull:
		bt, ok := h.Tuples[p.T]
		if !ok {
			return false, unbound(p.T)
		}
		// null(t.A) checks the raw data D, not the fix set: a deduced value
		// does not make the cell non-missing in D, and competing imputation
		// rules must still fire so their conflict can be resolved
		// (paper §4.2, MI case).
		v, ok := env.rawValue(bt.Rel, bt.Tuple, p.A)
		isNull := !ok || v.IsNull()
		if p.Kind == KNotNull {
			return !isNull, nil
		}
		return isNull, nil

	case KVertex:
		bx, ok := h.Vertices[p.X]
		if !ok {
			return false, unbound(p.X)
		}
		return bx.Graph == p.Graph, nil

	case KHER:
		bt, ok := h.Tuples[p.T]
		if !ok {
			return false, unbound(p.T)
		}
		bx, ok := h.Vertices[p.X]
		if !ok {
			return false, unbound(p.X)
		}
		// HER matchers are registry models over the tuple's raw values
		// and the vertex: ml.HERName(rel) for the tuple's relation, else
		// ml.HERName("") for any relation.
		her, err := env.Models.Get(ml.HERName(bt.Rel))
		if err != nil {
			her, err = env.Models.Get(ml.HERName(""))
		}
		if err != nil {
			return false, fmt.Errorf("predicate %s: no HER matcher registered", p)
		}
		return her.Predict(bt.Tuple.Values, ml.HERVertex(bx.ID)), nil

	case KMatch:
		bt, ok := h.Tuples[p.T]
		if !ok {
			return false, unbound(p.T)
		}
		_ = bt
		bx, ok := h.Vertices[p.X]
		if !ok {
			return false, unbound(p.X)
		}
		if env.PathM == nil {
			return false, fmt.Errorf("predicate %s: no path matcher registered", p)
		}
		return env.PathM.Match(p.A, bx.ID, p.Path), nil

	case KVal:
		bt, ok := h.Tuples[p.T]
		if !ok {
			return false, unbound(p.T)
		}
		bx, ok := h.Vertices[p.X]
		if !ok {
			return false, unbound(p.X)
		}
		g := env.Graphs[bx.Graph]
		if g == nil {
			return false, fmt.Errorf("predicate %s: graph %q not registered", p, bx.Graph)
		}
		want, okv := g.Val(bx.ID, p.Path)
		if !okv {
			return false, nil
		}
		v, ok := env.value(bt.Rel, bt.Tuple, p.A)
		if !ok || v.IsNull() {
			return false, nil
		}
		return v.Equal(data.S(want)), nil

	case KCorr:
		bt, ok := h.Tuples[p.T]
		if !ok {
			return false, unbound(p.T)
		}
		mc := env.Corr[p.Model]
		if mc == nil {
			return false, fmt.Errorf("predicate %s: correlation model %q not registered", p, p.Model)
		}
		bIdx := env.schemaIndex(bt.Rel, p.B)
		if bIdx < 0 {
			return false, fmt.Errorf("predicate %s: attribute %q not in %s", p, p.B, bt.Rel)
		}
		cand := p.C
		if cand.IsNull() {
			v, okv := env.value(bt.Rel, bt.Tuple, p.B)
			if !okv || v.IsNull() {
				return false, nil
			}
			cand = v
		}
		return mc.Strength(bt.Tuple, nil, bIdx, cand) >= p.Delta, nil

	case KPredict:
		bt, ok := h.Tuples[p.T]
		if !ok {
			return false, unbound(p.T)
		}
		md := env.Pred[p.Model]
		if md == nil {
			return false, fmt.Errorf("predicate %s: value predictor %q not registered", p, p.Model)
		}
		bIdx := env.schemaIndex(bt.Rel, p.B)
		if bIdx < 0 {
			return false, fmt.Errorf("predicate %s: attribute %q not in %s", p, p.B, bt.Rel)
		}
		suggested, _, okp := md.Suggest(bt.Tuple, bIdx)
		if !okp {
			return false, nil
		}
		v, okv := env.value(bt.Rel, bt.Tuple, p.B)
		if !okv || v.IsNull() {
			return false, nil
		}
		return v.Equal(suggested), nil
	}
	return false, fmt.Errorf("predicate: unknown kind %d", p.Kind)
}

func unbound(v string) error { return fmt.Errorf("predicate: unbound variable %q", v) }
