package discovery

import (
	"math/rand"

	"github.com/rockclean/rock/internal/data"
	"github.com/rockclean/rock/internal/predicate"
)

// Evidence is the evidence-set representation [72] of a dataset w.r.t. a
// predicate space: one bitset row per (sampled) valuation, one bit per
// predicate. All mining — Rock's pruned levelwise search and the ES
// baseline's unpruned sweep — runs over this matrix.
type Evidence struct {
	Space *Space
	// Pair reports whether rows are tuple pairs (true) or single tuples.
	Pair bool
	// rows[i] is the bitset of satisfied predicates for valuation i; the
	// first len(Space.Pre) bits are preconditions, followed by the
	// consequences.
	rows  [][]uint64
	words int
	// SampledFraction is the fraction of the full valuation population the
	// rows represent (1.0 = exhaustive).
	SampledFraction float64
}

// NumRows returns the number of materialised valuations.
func (e *Evidence) NumRows() int { return len(e.rows) }

// consBit returns the bit index of consequence j.
func (e *Evidence) consBit(j int) int { return len(e.Space.Pre) + j }

func (e *Evidence) set(row []uint64, bit int) { row[bit/64] |= 1 << (bit % 64) }

func (e *Evidence) has(row []uint64, bit int) bool { return row[bit/64]&(1<<(bit%64)) != 0 }

// BuildOptions tunes evidence construction.
type BuildOptions struct {
	// SampleRatio samples tuples before pairing (1.0 = all). The paper's
	// multi-round sampling mines on a fraction with an accuracy bound.
	SampleRatio float64
	// MaxPairs caps the number of pair rows (0 = no cap).
	MaxPairs int
	// Seed drives the sampler.
	Seed int64
}

// BuildEvidence materialises the evidence matrix for the space over env.
func BuildEvidence(env *predicate.Env, sp *Space, pair bool, opts BuildOptions) (*Evidence, error) {
	rel := env.DB.Rel(sp.Rel)
	if rel == nil {
		return nil, errUnknownRel(sp.Rel)
	}
	tuples, frac := sampleOf(rel.Tuples, opts, opts.Seed)
	vars, rels := []string{"t"}, []*data.Relation{rel}
	if pair {
		vars, rels = []string{"t", "s"}, []*data.Relation{rel, rel}
	}
	ev, add := newEvidence(env, sp, pair, frac, &predicate.Frame{Vars: vars, Rels: rels})
	if !pair {
		for _, t := range tuples {
			if err := add(t, nil); err != nil {
				return nil, err
			}
		}
		return ev, nil
	}
	for i, t := range tuples {
		for j, s := range tuples {
			if i == j {
				continue
			}
			if opts.MaxPairs > 0 && len(ev.rows) >= opts.MaxPairs {
				return ev, nil
			}
			if err := add(t, s); err != nil {
				return nil, err
			}
		}
	}
	return ev, nil
}

// BuildCrossEvidence materialises the evidence matrix for a cross-relation
// space: one row per (t, s) pair with t from sp.RelT and s from sp.RelS.
func BuildCrossEvidence(env *predicate.Env, sp *Space, opts BuildOptions) (*Evidence, error) {
	relT := env.DB.Rel(sp.RelT)
	relS := env.DB.Rel(sp.RelS)
	if relT == nil {
		return nil, errUnknownRel(sp.RelT)
	}
	if relS == nil {
		return nil, errUnknownRel(sp.RelS)
	}
	tuplesT, fracT := sampleOf(relT.Tuples, opts, opts.Seed)
	tuplesS, fracS := sampleOf(relS.Tuples, opts, opts.Seed+1)
	ev, add := newEvidence(env, sp, true, fracT*fracS, &predicate.Frame{Vars: []string{"t", "s"}, Rels: []*data.Relation{relT, relS}})
	for _, t := range tuplesT {
		for _, s := range tuplesS {
			if opts.MaxPairs > 0 && len(ev.rows) >= opts.MaxPairs {
				return ev, nil
			}
			if err := add(t, s); err != nil {
				return nil, err
			}
		}
	}
	return ev, nil
}

// sampleOf draws the SampleRatio sample of tuples with the given seed and
// returns it with its fraction; all of them (fraction 1) when the ratio
// samples nothing or the sample has fewer than two tuples.
func sampleOf(tuples []*data.Tuple, opts BuildOptions, seed int64) ([]*data.Tuple, float64) {
	if opts.SampleRatio <= 0 || opts.SampleRatio >= 1 {
		return tuples, 1.0
	}
	rng := rand.New(rand.NewSource(seed))
	var out []*data.Tuple
	for _, t := range tuples {
		if rng.Float64() < opts.SampleRatio {
			out = append(out, t)
		}
	}
	if len(out) < 2 {
		return tuples, 1.0
	}
	return out, float64(len(out)) / float64(len(tuples))
}

// newEvidence starts an empty matrix whose rows are the space's
// preconditions, then its consequences, compiled against fr and
// evaluated on each (t, s) that add binds (s nil: a one-tuple row).
func newEvidence(env *predicate.Env, sp *Space, pair bool, frac float64, fr *predicate.Frame) (*Evidence, func(t, s *data.Tuple) error) {
	all := make([]*predicate.Compiled, 0, len(sp.Pre)+len(sp.Cons))
	for _, p := range append(append([]*predicate.Predicate(nil), sp.Pre...), sp.Cons...) {
		all = append(all, fr.Compile(p))
	}
	ev := &Evidence{Space: sp, Pair: pair, words: (len(all) + 63) / 64, SampledFraction: frac}
	h := fr.NewValuation()
	return ev, func(t, s *data.Tuple) error {
		h.Tuples[0] = t
		if s != nil {
			h.Tuples[1] = s
		}
		row := make([]uint64, ev.words)
		for bit, p := range all {
			ok, err := p.Eval(env, h)
			if err != nil {
				return err
			}
			if ok {
				ev.set(row, bit)
			}
		}
		ev.rows = append(ev.rows, row)
		return nil
	}
}

// mask builds the word mask of an itemset so matching a row is a handful
// of AND/compare word operations rather than per-bit probes.
func (e *Evidence) mask(x []int) []uint64 {
	m := make([]uint64, e.words)
	for _, bit := range x {
		m[bit/64] |= 1 << (bit % 64)
	}
	return m
}

func rowMatches(row, mask []uint64) bool {
	for w := range mask {
		if row[w]&mask[w] != mask[w] {
			return false
		}
	}
	return true
}

// CountXAndCons returns (#rows satisfying X, #rows satisfying X and the
// j-th consequence).
func (e *Evidence) CountXAndCons(x []int, j int) (matchX, matchBoth int) {
	m := e.mask(x)
	cb := e.consBit(j)
	for _, row := range e.rows {
		if !rowMatches(row, m) {
			continue
		}
		matchX++
		if e.has(row, cb) {
			matchBoth++
		}
	}
	return matchX, matchBoth
}

type unknownRelError string

// Error implements the error interface.
func (e unknownRelError) Error() string { return "discovery: unknown relation " + string(e) }

func errUnknownRel(rel string) error { return unknownRelError(rel) }
