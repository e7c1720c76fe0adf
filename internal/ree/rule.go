// Package ree defines REE++ rules — extended entity enhancing rules of the
// form X → p0, where X is a conjunction of predicates over relation and
// vertex atoms and p0 is a single consequence predicate (paper §2). It
// provides a textual DSL with parser/printer, rule well-formedness checks,
// satisfaction and violation semantics, and support/confidence measures.
package ree

import (
	"fmt"
	"strings"

	"github.com/rockclean/rock/internal/data"
	"github.com/rockclean/rock/internal/predicate"
)

// Atom binds a tuple variable to a relation schema: R(t).
type Atom struct {
	Rel string
	Var string
}

// String renders R(t).
func (a Atom) String() string { return a.Rel + "(" + a.Var + ")" }

// VertexAtom binds a vertex variable to a knowledge graph: vertex(x, G).
type VertexAtom struct {
	Graph string
	Var   string
}

// String renders vertex(x, G).
func (a VertexAtom) String() string { return "vertex(" + a.Var + ", " + a.Graph + ")" }

// Rule is an REE++ φ : X → p0. All tuple/vertex variables occurring in the
// rule must be bound by Atoms/VertexAtoms (checked by Validate).
type Rule struct {
	ID          string
	Atoms       []Atom
	VertexAtoms []VertexAtom
	// X is the precondition: a conjunction of predicates.
	X []*predicate.Predicate
	// P0 is the consequence.
	P0 *predicate.Predicate

	// Support and Confidence are the objective quality measures attached
	// by rule discovery; zero when hand-written.
	Support    float64
	Confidence float64
	// Score is the subjective preference score learned from user labels
	// (top-k discovery); zero when unscored.
	Score float64
}

// RelOf returns the relation bound to the tuple variable, or "".
func (r *Rule) RelOf(varName string) string {
	for _, a := range r.Atoms {
		if a.Var == varName {
			return a.Rel
		}
	}
	return ""
}

// Compile lays the rule out in slots over db (paper §5.3's planned
// rule): slot i is Atoms[i], vertex slot j is VertexAtoms[j], and X and
// P0 read (slot, column) pairs. It is O(|X|) and meant to run once per
// evaluation of the rule, never per valuation. A relation missing from
// db is an error.
func (r *Rule) Compile(db *data.Database) (*predicate.Frame, error) {
	vars := make([]string, len(r.Atoms))
	rels := make([]*data.Relation, len(r.Atoms))
	for i, a := range r.Atoms {
		if rels[i] = db.Rel(a.Rel); rels[i] == nil {
			return nil, fmt.Errorf("rule %s references unknown relation %q", r.ID, a.Rel)
		}
		vars[i] = a.Var
	}
	vvars := make([]string, len(r.VertexAtoms))
	graphs := make([]string, len(r.VertexAtoms))
	for i, a := range r.VertexAtoms {
		vvars[i], graphs[i] = a.Var, a.Graph
	}
	f := &predicate.Frame{Vars: vars, Rels: rels, VertexVars: vvars, Graphs: graphs}
	f.X = make([]*predicate.Compiled, len(r.X))
	for i, p := range r.X {
		f.X[i] = f.Compile(p)
	}
	f.P0 = f.Compile(r.P0)
	return f, nil
}

// Validate checks well-formedness: unique variables, every predicate
// variable bound, attribute references resolvable when schemas are given
// (db may be nil to skip schema checks).
func (r *Rule) Validate(db *data.Database) error {
	seen := map[string]bool{}
	for _, a := range r.Atoms {
		if a.Var == "" || a.Rel == "" {
			return fmt.Errorf("rule %s: malformed atom %v", r.ID, a)
		}
		if seen[a.Var] {
			return fmt.Errorf("rule %s: duplicate variable %q", r.ID, a.Var)
		}
		seen[a.Var] = true
		if db != nil && db.Rel(a.Rel) == nil {
			return fmt.Errorf("rule %s: unknown relation %q", r.ID, a.Rel)
		}
	}
	for _, a := range r.VertexAtoms {
		if seen[a.Var] {
			return fmt.Errorf("rule %s: duplicate variable %q", r.ID, a.Var)
		}
		seen[a.Var] = true
	}
	if r.P0 == nil {
		return fmt.Errorf("rule %s: missing consequence", r.ID)
	}
	check := func(p *predicate.Predicate) error {
		for _, v := range p.Vars() {
			if !seen[v] {
				return fmt.Errorf("rule %s: predicate %s uses unbound tuple variable %q", r.ID, p, v)
			}
		}
		for _, v := range p.VertexVars() {
			if !seen[v] {
				return fmt.Errorf("rule %s: predicate %s uses unbound vertex variable %q", r.ID, p, v)
			}
		}
		if db != nil {
			if err := r.checkAttrs(db, p); err != nil {
				return err
			}
		}
		return nil
	}
	for _, p := range r.X {
		if err := check(p); err != nil {
			return err
		}
	}
	return check(r.P0)
}

func (r *Rule) checkAttrs(db *data.Database, p *predicate.Predicate) error {
	need := func(varName, attr string) error {
		if attr == "" || varName == "" {
			return nil
		}
		rel := r.RelOf(varName)
		if rel == "" {
			return nil // vertex-side or unbound (caught elsewhere)
		}
		rr := db.Rel(rel)
		if rr == nil {
			return nil
		}
		if !rr.Schema.Has(attr) {
			return fmt.Errorf("rule %s: %s has no attribute %q (predicate %s)", r.ID, rel, attr, p)
		}
		return nil
	}
	if err := need(p.T, p.A); err != nil {
		return err
	}
	if p.Kind == predicate.KCorr || p.Kind == predicate.KPredict {
		if err := need(p.T, p.B); err != nil {
			return err
		}
	} else if err := need(p.S, p.B); err != nil {
		return err
	}
	for _, a := range p.As {
		if err := need(p.T, a); err != nil {
			return err
		}
	}
	for _, b := range p.Bs {
		if err := need(p.S, b); err != nil {
			return err
		}
	}
	return nil
}

// HasML reports whether any predicate of the rule invokes an ML model —
// used by the RockNoML ablation to drop ML rules.
func (r *Rule) HasML() bool {
	for _, p := range r.X {
		if p.IsML() {
			return true
		}
	}
	return r.P0.IsML()
}

// Task classifies the rule by its consequence into the four cleaning tasks
// of paper §4.2.
type Task int

// Cleaning tasks.
const (
	TaskER Task = iota // consequence t.eid ⊕ s.eid
	TaskCR             // consequence t.A ⊕ c or t.A ⊕ s.B
	TaskTD             // consequence t ⪯_A s / t ≺_A s
	TaskMI             // consequence fills a value: val(x.ρ), M_d, or t.A = c on nullable cells
)

// String names the task.
func (t Task) String() string {
	switch t {
	case TaskER:
		return "ER"
	case TaskCR:
		return "CR"
	case TaskTD:
		return "TD"
	case TaskMI:
		return "MI"
	}
	return "?"
}

// TaskOf classifies the rule. Logic imputation rules (X → t.A = c with a
// null(t.A) precondition) classify as MI; other constant consequences are
// CR (paper §4.2's designated rule types).
func (r *Rule) TaskOf() Task {
	switch r.P0.Kind {
	case predicate.KEID:
		return TaskER
	case predicate.KTemporal, predicate.KRank:
		return TaskTD
	case predicate.KVal, predicate.KPredict:
		return TaskMI
	case predicate.KConst, predicate.KAttr:
		for _, p := range r.X {
			if p.Kind == predicate.KNull && p.T == r.P0.T && p.A == r.P0.A {
				return TaskMI
			}
		}
		return TaskCR
	default:
		return TaskCR
	}
}

// String renders the rule in DSL syntax (parseable by Parse).
func (r *Rule) String() string {
	var parts []string
	for _, a := range r.Atoms {
		parts = append(parts, a.String())
	}
	for _, a := range r.VertexAtoms {
		parts = append(parts, a.String())
	}
	for _, p := range r.X {
		parts = append(parts, p.String())
	}
	return strings.Join(parts, " ^ ") + " -> " + r.P0.String()
}

// Clone deep-copies the rule (predicates are copied by value).
func (r *Rule) Clone() *Rule {
	c := *r
	c.Atoms = append([]Atom(nil), r.Atoms...)
	c.VertexAtoms = append([]VertexAtom(nil), r.VertexAtoms...)
	c.X = make([]*predicate.Predicate, len(r.X))
	for i, p := range r.X {
		cp := *p
		c.X[i] = &cp
	}
	p0 := *r.P0
	c.P0 = &p0
	return &c
}
