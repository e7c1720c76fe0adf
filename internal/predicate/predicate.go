// Package predicate defines the predicate language of REE++ rules
// (paper §2): relation atoms, constant and attribute comparisons, ML
// predicates M(t[A̅], s[B̅]), temporal predicates t ⪯_A s / t ≺_A s, the
// ranking predicate M_rank(t, s, ⊗_A), extraction predicates vertex/HER/
// match/val over knowledge graphs, and correlation predicates
// M_c(t[A̅], B=c) ≥ δ and t[B] = M_d(t[A̅], B) — plus their evaluation
// against valuations.
package predicate

import (
	"fmt"
	"strings"

	"github.com/rockclean/rock/internal/data"
	"github.com/rockclean/rock/internal/kg"
)

// Op is a comparison operator ⊕ ∈ {=, ≠, <, ≤, >, ≥}.
type Op int

// Comparison operators.
const (
	Eq Op = iota
	Neq
	Lt
	Leq
	Gt
	Geq
)

// String renders the operator.
func (o Op) String() string {
	switch o {
	case Eq:
		return "="
	case Neq:
		return "!="
	case Lt:
		return "<"
	case Leq:
		return "<="
	case Gt:
		return ">"
	case Geq:
		return ">="
	}
	return "?"
}

// Apply evaluates `a o b` on two non-null values.
func (o Op) Apply(a, b data.Value) bool {
	switch o {
	case Eq:
		return a.Equal(b)
	case Neq:
		return !a.Equal(b)
	case Lt:
		return a.Compare(b) < 0
	case Leq:
		return a.Compare(b) <= 0
	case Gt:
		return a.Compare(b) > 0
	case Geq:
		return a.Compare(b) >= 0
	}
	return false
}

// Kind discriminates the predicate families of REE++s.
type Kind int

// Predicate kinds. KEID is the ER form t.eid ⊕ s.eid; KRank is the
// M_rank(t, s, ⊗_A) ML ranking predicate; the rest map one-to-one onto the
// grammar of paper §2.
const (
	KConst    Kind = iota // t.A ⊕ c
	KAttr                 // t.A ⊕ s.B
	KEID                  // t.eid ⊕ s.eid (ER consequence/precondition)
	KML                   // M(t[A̅], s[B̅])
	KTemporal             // t ⪯_A s  /  t ≺_A s
	KRank                 // M_rank(t, s, ⊗_A)
	KNull                 // null(t.A)
	KNotNull              // !null(t.A)
	KVertex               // vertex(x, G)
	KHER                  // HER(t, x)
	KMatch                // match(t.A, x.ρ)
	KVal                  // t.A = val(x.ρ)
	KCorr                 // M_c(t, B[=c]) >= δ
	KPredict              // t.B = M_d(t, B)
)

// Predicate is one predicate of an REE++. Field use depends on Kind; unused
// fields are zero. T and S name tuple variables, X names a vertex variable.
type Predicate struct {
	Kind Kind
	Op   Op

	T, S string // tuple variables
	X    string // vertex variable

	A, B   string   // single attributes (A on T/X side, B on S side)
	As, Bs []string // attribute vectors for ML predicates

	C data.Value // constant operand

	Model  string  // ML model / ranker / correlation model name
	Delta  float64 // threshold δ for KCorr
	Strict bool    // strict (≺) vs weak (⪯) for KTemporal/KRank

	Graph string  // graph name for KVertex
	Path  kg.Path // label path for KMatch/KVal
}

// Vars returns the tuple variables referenced by the predicate, in
// first-use order, deduplicated.
func (p *Predicate) Vars() []string {
	var out []string
	add := func(v string) {
		if v == "" {
			return
		}
		for _, o := range out {
			if o == v {
				return
			}
		}
		out = append(out, v)
	}
	add(p.T)
	add(p.S)
	return out
}

// VertexVars returns the vertex variables referenced by the predicate.
func (p *Predicate) VertexVars() []string {
	if p.X == "" {
		return nil
	}
	return []string{p.X}
}

// IsML reports whether evaluating the predicate invokes an ML model.
func (p *Predicate) IsML() bool {
	switch p.Kind {
	case KML, KRank, KHER, KMatch, KCorr, KPredict:
		return true
	}
	return false
}

// String renders the predicate in the rule DSL syntax accepted by the
// parser in package ree.
func (p *Predicate) String() string {
	switch p.Kind {
	case KConst:
		return fmt.Sprintf("%s.%s %s %s", p.T, p.A, p.Op, literal(p.C))
	case KAttr:
		return fmt.Sprintf("%s.%s %s %s.%s", p.T, p.A, p.Op, p.S, p.B)
	case KEID:
		return fmt.Sprintf("%s.eid %s %s.eid", p.T, p.Op, p.S)
	case KML:
		return fmt.Sprintf("%s(%s[%s], %s[%s])", p.Model, p.T, strings.Join(p.As, ","), p.S, strings.Join(p.Bs, ","))
	case KTemporal:
		op := "<="
		if p.Strict {
			op = "<"
		}
		return fmt.Sprintf("%s %s[%s] %s", p.T, op, p.A, p.S)
	case KRank:
		op := "<="
		if p.Strict {
			op = "<"
		}
		return fmt.Sprintf("%s(%s, %s, %s[%s])", p.Model, p.T, p.S, op, p.A)
	case KNull:
		return fmt.Sprintf("null(%s.%s)", p.T, p.A)
	case KNotNull:
		return fmt.Sprintf("!null(%s.%s)", p.T, p.A)
	case KVertex:
		return fmt.Sprintf("vertex(%s, %s)", p.X, p.Graph)
	case KHER:
		return fmt.Sprintf("%s(%s, %s)", modelOr(p.Model, "HER"), p.T, p.X)
	case KMatch:
		return fmt.Sprintf("match(%s.%s, %s.%s)", p.T, p.A, p.X, p.Path)
	case KVal:
		return fmt.Sprintf("%s.%s = val(%s.%s)", p.T, p.A, p.X, p.Path)
	case KCorr:
		if p.C.IsNull() {
			return fmt.Sprintf("%s(%s, %s) >= %g", p.Model, p.T, p.B, p.Delta)
		}
		return fmt.Sprintf("%s(%s, %s=%s) >= %g", p.Model, p.T, p.B, literal(p.C), p.Delta)
	case KPredict:
		return fmt.Sprintf("%s.%s = %s(%s, %s)", p.T, p.B, p.Model, p.T, p.B)
	}
	return "?"
}

func modelOr(m, def string) string {
	if m == "" {
		return def
	}
	return m
}

func literal(v data.Value) string {
	if v.IsNull() {
		return "null"
	}
	if v.Kind() == data.TString {
		return "'" + strings.ReplaceAll(v.Str(), "'", "\\'") + "'"
	}
	if v.Kind() == data.TTime {
		return "'" + v.String() + "'"
	}
	return v.String()
}
