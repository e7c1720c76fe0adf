package predicate

import (
	"fmt"
	"slices"

	"github.com/rockclean/rock/internal/crystal"
	"github.com/rockclean/rock/internal/data"
	"github.com/rockclean/rock/internal/kg"
	"github.com/rockclean/rock/internal/ml"
)

// VertexBinding attaches a vertex variable to a vertex of a graph; the
// zero binding (Graph "") is unbound.
type VertexBinding struct {
	Graph string
	ID    kg.VertexID
}

// Frame is a rule compiled to slots (the planned rule of paper §5.3):
// every tuple variable has a slot bound to one relation, every vertex
// variable a vertex slot bound to one graph, and every predicate reads
// (slot, column) pairs resolved once against the relation schemas. A
// frame is built once per rule evaluation, never per valuation, and is
// read-only afterwards.
type Frame struct {
	Vars       []string         // the tuple variable of each slot
	Rels       []*data.Relation // the relation each slot ranges over
	VertexVars []string         // the vertex variable of each vertex slot
	Graphs     []string         // the graph each vertex slot ranges over

	// X and P0 are the rule's precondition and consequence compiled
	// against the frame (ree.Rule.Compile); nil in a bare layout.
	X  []*Compiled
	P0 *Compiled
}

// Compiled is a predicate compiled against a frame: its variables are
// slots (-1: not a variable of the frame, which evaluates as unbound) and
// its attributes are column indexes into the slot's relation (-1: not in
// the schema, which reads as a missing value).
type Compiled struct {
	*Predicate
	TSlot, SSlot int // tuple slots of T and S
	XSlot        int // vertex slot of X
	// ACol is A's column in T's relation. BCol is B's column in S's
	// relation, or in T's for the single-tuple correlation and prediction
	// predicates. AsCols and BsCols are the ML vectors' columns.
	ACol, BCol     int
	AsCols, BsCols []int
}

// Compile resolves p's variables and attributes against the frame.
func (f *Frame) Compile(p *Predicate) *Compiled {
	c := &Compiled{Predicate: p, TSlot: slices.Index(f.Vars, p.T), SSlot: slices.Index(f.Vars, p.S),
		XSlot: slices.Index(f.VertexVars, p.X)}
	bSlot := c.SSlot
	if p.Kind == KCorr || p.Kind == KPredict {
		bSlot = c.TSlot
	}
	c.ACol, c.BCol = f.column(c.TSlot, p.A), f.column(bSlot, p.B)
	for _, a := range p.As {
		c.AsCols = append(c.AsCols, f.column(c.TSlot, a))
	}
	for _, b := range p.Bs {
		c.BsCols = append(c.BsCols, f.column(c.SSlot, b))
	}
	return c
}

// column is attr's index in the schema of slot's relation, or -1.
func (f *Frame) column(slot int, attr string) int {
	if slot < 0 {
		return -1
	}
	return f.Rels[slot].Schema.Index(attr)
}

// Valuation is a mapping h of tuple variables to tuples and vertex
// variables to vertices (paper §2.1 and §2.3 semantics), laid out by its
// frame: Tuples[i] is the tuple bound to slot i (nil: unbound), and
// binding a variable is one index write.
type Valuation struct {
	Frame    *Frame
	Tuples   []*data.Tuple
	Vertices []VertexBinding
}

// NewValuation creates an empty valuation over the frame.
func (f *Frame) NewValuation() *Valuation {
	return &Valuation{Frame: f, Tuples: make([]*data.Tuple, len(f.Vars)), Vertices: make([]VertexBinding, len(f.VertexVars))}
}

// Tuple returns the tuple bound to slot, nil when slot is -1 or unbound.
func (h *Valuation) Tuple(slot int) *data.Tuple {
	if slot < 0 {
		return nil
	}
	return h.Tuples[slot]
}

// Rel names the relation of a tuple slot.
func (h *Valuation) Rel(slot int) string { return h.Frame.Rels[slot].Schema.Name }

// Clone copies the bindings; the frame is shared.
func (h *Valuation) Clone() *Valuation {
	return &Valuation{Frame: h.Frame, Tuples: append([]*data.Tuple(nil), h.Tuples...), Vertices: append([]VertexBinding(nil), h.Vertices...)}
}

// View is the value view a chase evaluates through (paper §4.1, condition
// (1)): validated values first, raw data otherwise. Value reads column col
// of tuple t of relation rel; a null value means the value is missing, and
// col is a schema index, possibly out of range (-1 for an attribute the
// schema lacks). Shadowed lists, ascending, the TIDs of rel whose Value
// may differ from their raw values: every other tuple reads raw, so the
// executor compares its dictionary ids. A View changes only between
// evaluations, so readers take no lock.
type View interface {
	Value(rel *data.Relation, t *data.Tuple, col int) data.Value
	Shadowed(rel *data.Relation) []int
}

// Env carries everything predicate evaluation may need: the database, the
// registered ML models, the temporal orders, and the knowledge graphs.
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

	// View, when non-nil, is what attribute access reads: the chase
	// installs its fix-set view on its own copy of the env. Nil reads raw
	// data (detection semantics).
	View View

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

// Value reads column col of t through the env's view, or raw when it has
// none; null when the value is missing.
func (e *Env) Value(rel *data.Relation, t *data.Tuple, col int) data.Value {
	if e.View != nil {
		return e.View.Value(rel, t, col)
	}
	return RawValue(t, col)
}

// RawValue reads column col of t from the tuple itself; null when col is
// out of range.
func RawValue(t *data.Tuple, col int) data.Value {
	if col < 0 || col >= len(t.Values) {
		return data.Value{}
	}
	return t.Values[col]
}

// Values reads a vector t[cols] through Value.
func (e *Env) Values(rel *data.Relation, t *data.Tuple, cols []int) []data.Value {
	out := make([]data.Value, len(cols))
	for i, c := range cols {
		out[i] = e.Value(rel, t, c)
	}
	return out
}

// tuple returns the relation and tuple bound to slot; name is the
// variable, for the error when it is unbound.
func (h *Valuation) tuple(slot int, name string) (*data.Relation, *data.Tuple, error) {
	if slot < 0 || h.Tuples[slot] == nil {
		return nil, nil, unbound(name)
	}
	return h.Frame.Rels[slot], h.Tuples[slot], nil
}

// operands is what a predicate reads of a valuation: T's relation and
// tuple, S's (the two-tuple kinds), X's vertex (the extraction kinds).
type operands struct {
	rt, rs *data.Relation
	t, s   *data.Tuple
	x      VertexBinding
}

// operands fetches p's operands from h, T first, erring on the first
// unbound one.
func (p *Compiled) operands(h *Valuation) (o operands, err error) {
	if p.Kind != KVertex {
		if o.rt, o.t, err = h.tuple(p.TSlot, p.T); err != nil {
			return o, err
		}
	}
	switch p.Kind {
	case KAttr, KEID, KML, KTemporal, KRank:
		o.rs, o.s, err = h.tuple(p.SSlot, p.S)
	case KVertex, KHER, KMatch, KVal:
		if p.XSlot < 0 || h.Vertices[p.XSlot].Graph == "" {
			return o, unbound(p.X)
		}
		o.x = h.Vertices[p.XSlot]
	}
	return o, err
}

// Eval evaluates h |= p over the valuation's frame, reading attributes
// by (relation, tuple, column). An error indicates a malformed predicate
// or a missing model/graph — not a false predicate.
func (p *Compiled) Eval(env *Env, h *Valuation) (bool, error) {
	o, err := p.operands(h)
	if err != nil {
		return false, err
	}
	switch p.Kind {
	case KConst:
		// Null compares unknown — only "= null"/"!= null" are decidable
		// through the dedicated KNull predicate.
		v := env.Value(o.rt, o.t, p.ACol)
		return !v.IsNull() && p.Op.Apply(v, p.C), nil

	case KAttr:
		vt, vs := env.Value(o.rt, o.t, p.ACol), env.Value(o.rs, o.s, p.BCol)
		return !vt.IsNull() && !vs.IsNull() && p.Op.Apply(vt, vs), nil

	case KEID:
		return (o.t.EID == o.s.EID) != (p.Op == Neq), nil

	case KML:
		m, err := env.Models.Get(p.Model)
		if err != nil {
			return false, err
		}
		return m.Predict(env.Values(o.rt, o.t, p.AsCols), env.Values(o.rs, o.s, p.BsCols)), nil

	case KTemporal:
		if env.Orders == nil {
			return false, nil
		}
		ord := env.Orders(o.rt.Schema.Name, p.A)
		if ord == nil {
			return false, nil
		}
		if p.Strict {
			return ord.Less(o.t.TID, o.s.TID), nil
		}
		return ord.Leq(o.t.TID, o.s.TID), nil

	case KRank:
		if env.Ranker == nil {
			return false, fmt.Errorf("predicate %s: no ranker registered", p.Predicate)
		}
		leq := env.Ranker.RankLeq(o.rt.Schema.Name, o.t, o.s, p.A)
		if p.Strict {
			rev := env.Ranker.RankLeq(o.rt.Schema.Name, o.s, o.t, p.A)
			return leq >= 0.5 && rev < 0.5, nil
		}
		return leq >= 0.5, nil

	case KNull, KNotNull:
		// null(t.A) checks the raw data D, not the fix set: a deduced value
		// does not make the cell non-missing in D, and competing imputation
		// rules must still fire so their conflict can be resolved
		// (paper §4.2, MI case).
		return RawValue(o.t, p.ACol).IsNull() == (p.Kind == KNull), nil

	case KVertex:
		return o.x.Graph == p.Graph, nil

	case KHER:
		// HER matchers are registry models over the tuple's raw values
		// and the vertex: ml.HERName(rel) for the tuple's relation, else
		// ml.HERName("") for any relation.
		her, err := env.Models.Get(ml.HERName(o.rt.Schema.Name))
		if err != nil {
			her, err = env.Models.Get(ml.HERName(""))
		}
		if err != nil {
			return false, fmt.Errorf("predicate %s: no HER matcher registered", p.Predicate)
		}
		return her.Predict(o.t.Values, ml.HERVertex(o.x.ID)), nil

	case KMatch:
		if env.PathM == nil {
			return false, fmt.Errorf("predicate %s: no path matcher registered", p.Predicate)
		}
		return env.PathM.Match(p.A, o.x.ID, p.Path), nil

	case KVal:
		g := env.Graphs[o.x.Graph]
		if g == nil {
			return false, fmt.Errorf("predicate %s: graph %q not registered", p.Predicate, o.x.Graph)
		}
		want, ok := g.Val(o.x.ID, p.Path)
		if !ok {
			return false, nil
		}
		v := env.Value(o.rt, o.t, p.ACol)
		return !v.IsNull() && v.Equal(data.S(want)), nil

	case KCorr:
		mc := env.Corr[p.Model]
		if mc == nil {
			return false, fmt.Errorf("predicate %s: correlation model %q not registered", p.Predicate, p.Model)
		}
		if p.BCol < 0 {
			return false, fmt.Errorf("predicate %s: attribute %q not in %s", p.Predicate, p.B, o.rt.Schema.Name)
		}
		cand := p.C
		if cand.IsNull() {
			if cand = env.Value(o.rt, o.t, p.BCol); cand.IsNull() {
				return false, nil
			}
		}
		return mc.Strength(o.t, nil, p.BCol, cand) >= p.Delta, nil

	case KPredict:
		md := env.Pred[p.Model]
		if md == nil {
			return false, fmt.Errorf("predicate %s: value predictor %q not registered", p.Predicate, p.Model)
		}
		if p.BCol < 0 {
			return false, fmt.Errorf("predicate %s: attribute %q not in %s", p.Predicate, p.B, o.rt.Schema.Name)
		}
		suggested, _, ok := md.Suggest(o.t, p.BCol)
		if !ok {
			return false, nil
		}
		v := env.Value(o.rt, o.t, p.BCol)
		return !v.IsNull() && v.Equal(suggested), nil
	}
	return false, fmt.Errorf("predicate: unknown kind %d", p.Kind)
}

func unbound(v string) error { return fmt.Errorf("predicate: unbound variable %q", v) }
