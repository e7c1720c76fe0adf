// Package discovery implements Rock's rule-discovery module (paper §3 and
// §5.2): mining REE++s from data. The pipeline is
//
//	predicate space → evidence sets → levelwise search → top-k ranking,
//
// with the cost controls of the paper: multi-round sampling with
// verification [36], support/confidence pruning, FDX-style predicate
// pruning for a target consequence, a learned subjective scoring model
// over user labels [37], and an anytime iterator that keeps yielding the
// next-best rules. The ES baseline reuses the same evidence machinery with
// pruning disabled.
package discovery

import (
	"sort"

	"github.com/rockclean/rock/internal/data"
	"github.com/rockclean/rock/internal/predicate"
	"github.com/rockclean/rock/internal/ree"
)

// Space is the candidate predicate space over one relation, for rules with
// tuple variables t and s (pair mode) or just t (single mode). Cross-
// relation spaces set RelT/RelS (t and s range over different relations).
type Space struct {
	Rel string
	// RelT/RelS are set for cross-relation spaces (t in RelT, s in RelS).
	RelT, RelS string
	// Pre are the candidate precondition predicates.
	Pre []*predicate.Predicate
	// Cons are the candidate consequences.
	Cons []*predicate.Predicate
}

// SpaceOptions tunes predicate-space construction.
type SpaceOptions struct {
	// MaxConstants bounds the frequent constants per attribute.
	MaxConstants int
	// MinConstantFreq is the minimum relative frequency for a constant
	// predicate t.A = c to enter the space.
	MinConstantFreq float64
	// MLModels are similarity models to offer as predicates on string
	// attributes (empty: none — the RockNoML configuration).
	MLModels []string
	// Numeric enables order comparisons t.A <= s.A on numeric attributes.
	Numeric bool
	// Temporal enables temporal-order consequences t <=[A] s for the given
	// attributes (requires seeded orders in the environment).
	TemporalAttrs []string
	// TargetAttrs restricts consequences to these attributes (nil: all).
	TargetAttrs []string
}

// DefaultSpaceOptions returns sensible defaults.
func DefaultSpaceOptions() SpaceOptions {
	return SpaceOptions{MaxConstants: 12, MinConstantFreq: 0.05, Numeric: true}
}

// BuildPairSpace constructs the two-variable space over relation rel:
// preconditions t.A = s.A (all attrs), t.A = c / s.A = c (frequent
// constants), t.A <= s.A (numeric), M(t[A], s[A]) (ML models on strings);
// consequences t.eid = s.eid, t.A = s.A, and t <=[A] s.
func BuildPairSpace(rel *data.Relation, opts SpaceOptions) *Space {
	sp := &Space{Rel: rel.Schema.Name}
	target := map[string]bool{}
	for _, a := range opts.TargetAttrs {
		target[a] = true
	}
	wantTarget := func(a string) bool { return len(target) == 0 || target[a] }

	for _, attr := range rel.Schema.Attrs {
		eq := &predicate.Predicate{Kind: predicate.KAttr, Op: predicate.Eq, T: "t", A: attr.Name, S: "s", B: attr.Name}
		sp.Pre = append(sp.Pre, eq)
		if wantTarget(attr.Name) {
			cons := *eq
			sp.Cons = append(sp.Cons, &cons)
		}
		if opts.Numeric && (attr.Type == data.TInt || attr.Type == data.TFloat) {
			sp.Pre = append(sp.Pre, &predicate.Predicate{Kind: predicate.KAttr, Op: predicate.Leq, T: "t", A: attr.Name, S: "s", B: attr.Name})
		}
		for _, c := range frequentConstants(rel, attr, opts) {
			sp.Pre = append(sp.Pre,
				&predicate.Predicate{Kind: predicate.KConst, Op: predicate.Eq, T: "t", A: attr.Name, C: c},
				&predicate.Predicate{Kind: predicate.KConst, Op: predicate.Eq, T: "s", A: attr.Name, C: c})
		}
		if attr.Type == data.TString {
			for _, m := range opts.MLModels {
				sp.Pre = append(sp.Pre, &predicate.Predicate{
					Kind: predicate.KML, Model: m, T: "t", S: "s",
					As: []string{attr.Name}, Bs: []string{attr.Name},
				})
			}
		}
	}
	sp.Cons = append(sp.Cons, &predicate.Predicate{Kind: predicate.KEID, Op: predicate.Eq, T: "t", S: "s"})
	for _, a := range opts.TemporalAttrs {
		if rel.Schema.Has(a) && wantTarget(a) {
			sp.Cons = append(sp.Cons, &predicate.Predicate{Kind: predicate.KTemporal, T: "t", S: "s", A: a})
		}
	}
	return sp
}

// BuildCrossSpace constructs the two-relation space for rules of the form
// R(t) ^ S(s) ^ X → p0 (paper §7: Rock "enhances the ability for data
// cleaning across multiple relational tables"; the Bank mi-city rule is
// the archetype). Preconditions compare same-typed attribute pairs across
// the relations plus frequent constants on either side; consequences are
// the cross-relation attribute equations.
func BuildCrossSpace(relT, relS *data.Relation, opts SpaceOptions) *Space {
	sp := &Space{
		Rel:  relT.Schema.Name + "|" + relS.Schema.Name,
		RelT: relT.Schema.Name,
		RelS: relS.Schema.Name,
	}
	target := map[string]bool{}
	for _, a := range opts.TargetAttrs {
		target[a] = true
	}
	wantTarget := func(a string) bool { return len(target) == 0 || target[a] }
	for _, at := range relT.Schema.Attrs {
		for _, as := range relS.Schema.Attrs {
			if at.Type != as.Type {
				continue
			}
			eq := &predicate.Predicate{Kind: predicate.KAttr, Op: predicate.Eq, T: "t", A: at.Name, S: "s", B: as.Name}
			sp.Pre = append(sp.Pre, eq)
			if wantTarget(at.Name) || wantTarget(as.Name) {
				cons := *eq
				sp.Cons = append(sp.Cons, &cons)
			}
		}
	}
	for _, at := range relT.Schema.Attrs {
		for _, c := range frequentConstants(relT, at, opts) {
			sp.Pre = append(sp.Pre, &predicate.Predicate{Kind: predicate.KConst, Op: predicate.Eq, T: "t", A: at.Name, C: c})
		}
	}
	for _, as := range relS.Schema.Attrs {
		for _, c := range frequentConstants(relS, as, opts) {
			sp.Pre = append(sp.Pre, &predicate.Predicate{Kind: predicate.KConst, Op: predicate.Eq, T: "s", A: as.Name, C: c})
		}
	}
	return sp
}

// BuildSingleSpace constructs the one-variable space over relation rel:
// preconditions t.A = c; consequences t.B = c — the ϕ12-style logic rules
// that both resolve conflicts and impute missing values through the chase.
func BuildSingleSpace(rel *data.Relation, opts SpaceOptions) *Space {
	sp := &Space{Rel: rel.Schema.Name}
	target := map[string]bool{}
	for _, a := range opts.TargetAttrs {
		target[a] = true
	}
	wantTarget := func(a string) bool { return len(target) == 0 || target[a] }
	for _, attr := range rel.Schema.Attrs {
		for _, c := range frequentConstants(rel, attr, opts) {
			p := &predicate.Predicate{Kind: predicate.KConst, Op: predicate.Eq, T: "t", A: attr.Name, C: c}
			sp.Pre = append(sp.Pre, p)
			if wantTarget(attr.Name) {
				cp := *p
				sp.Cons = append(sp.Cons, &cp)
			}
		}
	}
	return sp
}

// frequentConstants returns the values of attr occurring with relative
// frequency at least MinConstantFreq, capped at MaxConstants, most
// frequent first.
func frequentConstants(rel *data.Relation, attr data.Attribute, opts SpaceOptions) []data.Value {
	i := rel.Schema.Index(attr.Name)
	if i < 0 || rel.Len() == 0 {
		return nil
	}
	counts := make(map[string]int)
	vals := make(map[string]data.Value)
	for _, t := range rel.Tuples {
		v := t.Values[i]
		if v.IsNull() {
			continue
		}
		k := v.Key()
		counts[k]++
		vals[k] = v
	}
	type kv struct {
		k string
		n int
	}
	var sorted []kv
	minCount := int(opts.MinConstantFreq * float64(rel.Len()))
	if minCount < 2 {
		minCount = 2
	}
	for k, n := range counts {
		if n >= minCount {
			sorted = append(sorted, kv{k, n})
		}
	}
	sort.Slice(sorted, func(a, b int) bool {
		if sorted[a].n != sorted[b].n {
			return sorted[a].n > sorted[b].n
		}
		return sorted[a].k < sorted[b].k
	})
	max := opts.MaxConstants
	if max <= 0 {
		max = 12
	}
	if len(sorted) > max {
		sorted = sorted[:max]
	}
	out := make([]data.Value, len(sorted))
	for j, e := range sorted {
		out[j] = vals[e.k]
	}
	return out
}

// ruleFromItems materialises a mined itemset as an REE++. Cross-relation
// spaces bind t and s to their respective relations.
func ruleFromItems(sp *Space, pair bool, pre []*predicate.Predicate, cons *predicate.Predicate, id string) *ree.Rule {
	r := &ree.Rule{ID: id}
	if sp.RelT != "" && sp.RelS != "" {
		r.Atoms = append(r.Atoms,
			ree.Atom{Rel: sp.RelT, Var: "t"},
			ree.Atom{Rel: sp.RelS, Var: "s"})
	} else {
		r.Atoms = append(r.Atoms, ree.Atom{Rel: sp.Rel, Var: "t"})
		if pair {
			r.Atoms = append(r.Atoms, ree.Atom{Rel: sp.Rel, Var: "s"})
		}
	}
	for _, p := range pre {
		cp := *p
		r.X = append(r.X, &cp)
	}
	c := *cons
	r.P0 = &c
	return r
}

// spaceFingerprint renders a predicate canonically for dedup.
func spaceFingerprint(p *predicate.Predicate) string { return p.String() }
