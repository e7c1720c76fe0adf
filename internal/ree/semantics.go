package ree

import (
	"fmt"

	"github.com/rockclean/rock/internal/data"
	"github.com/rockclean/rock/internal/predicate"
)

// Violation is a valuation h witnessing D ̸|= φ: h |= X but h ̸|= p0
// (paper §4.2). It identifies the involved tuples so error reporting can
// point at cells.
type Violation struct {
	Rule *Rule
	H    *predicate.Valuation
}

// String renders the violation compactly, bindings in slot order.
func (v *Violation) String() string {
	s := "violation of " + v.Rule.ID + " {"
	for i, t := range v.H.Tuples {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s->%s[%d]", v.H.Frame.Vars[i], v.H.Rel(i), t.TID)
	}
	return s + "}"
}

// enumerate walks every valuation of the rule's tuple atoms in D (and
// vertex atoms in the registered graphs), calling fn; fn returning false
// stops the walk. Valuations binding two variables of the same relation to
// the same tuple are skipped for two-variable predicates' sake only when
// the rule compares a variable with itself implicitly — following the
// standard REE semantics, identical bindings are allowed but trivial
// self-pairs (t=s on every attribute) are skipped to avoid vacuous matches.
func (r *Rule) enumerate(env *predicate.Env, fn func(h *predicate.Valuation) (bool, error)) error {
	f, err := r.Compile(env.DB)
	if err != nil {
		return err
	}
	h := f.NewValuation()
	var rec func(i int) (bool, error)
	rec = func(i int) (bool, error) {
		if i == len(f.Rels) {
			return r.enumerateVertices(env, 0, h, fn)
		}
		for _, t := range f.Rels[i].Tuples {
			if skipSelfPair(h, i, t) {
				continue
			}
			h.Tuples[i] = t
			cont, err := rec(i + 1)
			if err != nil || !cont {
				h.Tuples[i] = nil
				return cont, err
			}
		}
		h.Tuples[i] = nil
		return true, nil
	}
	_, err = rec(0)
	return err
}

func (r *Rule) enumerateVertices(env *predicate.Env, i int, h *predicate.Valuation, fn func(h *predicate.Valuation) (bool, error)) (bool, error) {
	if i == len(h.Vertices) {
		return fn(h)
	}
	graph := h.Frame.Graphs[i]
	g := env.Graphs[graph]
	if g == nil {
		return false, fmt.Errorf("rule %s: graph %q not registered", r.ID, graph)
	}
	for _, v := range g.VertexIDs() {
		h.Vertices[i] = predicate.VertexBinding{Graph: graph, ID: v}
		cont, err := r.enumerateVertices(env, i+1, h, fn)
		if err != nil || !cont {
			h.Vertices[i] = predicate.VertexBinding{}
			return cont, err
		}
	}
	h.Vertices[i] = predicate.VertexBinding{}
	return true, nil
}

// skipSelfPair suppresses binding slot i to a tuple an earlier slot of
// the same relation holds — the standard convention so that rules like
// R(t) ^ R(s) ^ t.A = s.A -> t.B = s.B don't match each tuple against
// itself.
func skipSelfPair(h *predicate.Valuation, i int, t *data.Tuple) bool {
	for j := 0; j < i; j++ {
		if h.Frame.Rels[j] == h.Frame.Rels[i] && h.Tuples[j].TID == t.TID {
			return true
		}
	}
	return false
}

// HoldsX evaluates h |= X over h's frame.
func (r *Rule) HoldsX(env *predicate.Env, h *predicate.Valuation) (bool, error) {
	for _, p := range h.Frame.X {
		ok, err := p.Eval(env, h)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// Violations enumerates all violations of the rule in the environment's
// database, up to limit (limit <= 0 means unlimited). This is the
// reference (naive) evaluator; package detect provides the blocked,
// parallel one.
func (r *Rule) Violations(env *predicate.Env, limit int) ([]*Violation, error) {
	var out []*Violation
	err := r.enumerate(env, func(h *predicate.Valuation) (bool, error) {
		okX, err := r.HoldsX(env, h)
		if err != nil {
			return false, err
		}
		if !okX {
			return true, nil
		}
		okP0, err := h.Frame.P0.Eval(env, h)
		if err != nil {
			return false, err
		}
		if !okP0 {
			out = append(out, &Violation{Rule: r, H: h.Clone()})
			if limit > 0 && len(out) >= limit {
				return false, nil
			}
		}
		return true, nil
	})
	return out, err
}

// Satisfied reports whether D |= φ: no violations exist.
func (r *Rule) Satisfied(env *predicate.Env) (bool, error) {
	vs, err := r.Violations(env, 1)
	if err != nil {
		return false, err
	}
	return len(vs) == 0, nil
}

// Measure computes support and confidence of the rule over the
// environment's database:
//
//	support    = #valuations with h |= X and h |= p0, normalised by the
//	             total number of valuations;
//	confidence = #(h |= X ∧ p0) / #(h |= X).
//
// These are the objective measures used by rule discovery (paper §3,
// "Rule discovery"; [36, 37]).
func (r *Rule) Measure(env *predicate.Env) (support, confidence float64, err error) {
	var total, matchX, matchBoth int
	err = r.enumerate(env, func(h *predicate.Valuation) (bool, error) {
		total++
		okX, err := r.HoldsX(env, h)
		if err != nil {
			return false, err
		}
		if !okX {
			return true, nil
		}
		matchX++
		okP0, err := h.Frame.P0.Eval(env, h)
		if err != nil {
			return false, err
		}
		if okP0 {
			matchBoth++
		}
		return true, nil
	})
	if err != nil {
		return 0, 0, err
	}
	if total > 0 {
		support = float64(matchBoth) / float64(total)
	}
	if matchX > 0 {
		confidence = float64(matchBoth) / float64(matchX)
	}
	return support, confidence, nil
}
