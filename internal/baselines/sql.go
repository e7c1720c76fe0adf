package baselines

import (
	"github.com/rockclean/rock/internal/data"
	"github.com/rockclean/rock/internal/detect"
	"github.com/rockclean/rock/internal/exec"
	"github.com/rockclean/rock/internal/ml"
	"github.com/rockclean/rock/internal/predicate"
	"github.com/rockclean/rock/internal/quality"
	"github.com/rockclean/rock/internal/ree"
)

// SQLEngine is the SparkSQL/Presto stand-in: Rock's learned REE++s are
// "transformed to SQL" and executed as joins with ML predicates as UDFs
// (paper §6, Exp-2/3). Relative to Rock, the engine lacks exactly the
// optimisations the paper credits for the gap:
//
//   - no LSH blocking — ML UDFs evaluate on every joined candidate;
//   - no model-result caching — every UDF call recomputes;
//   - no lazy activation or partial valuations — error correction
//     "iteratively executes SQL until no more fixes are generated",
//     re-scanning everything each round;
//   - no ground truth, no conflict resolution (last write wins), and a
//     single worker.
type SQLEngine struct {
	EngineName string
	// RulesOverride runs these rules instead of the bench's (used by ES).
	RulesOverride []*ree.Rule
	// SinglePass applies consequences once instead of iterating to
	// fixpoint.
	SinglePass bool
}

// sqlMaxRounds bounds the EC fixpoint loop.
const sqlMaxRounds = 12

// NewSparkSQL returns the SparkSQL configuration.
func NewSparkSQL() *SQLEngine { return &SQLEngine{EngineName: "SparkSQL"} }

// NewPresto returns the Presto configuration.
func NewPresto() *SQLEngine { return &SQLEngine{EngineName: "Presto"} }

// Name implements System.
func (s *SQLEngine) Name() string { return s.EngineName }

// Discover implements System: SQL engines do not discover rules
// (paper §6: "SparkSQL and Presto do not discover rules/SQL themselves").
func (s *SQLEngine) Discover(b *Bench) ([]*ree.Rule, error) { return nil, nil }

// uncachedEnv strips the model caches, HER matchers' included: each UDF
// call pays full inference.
func (s *SQLEngine) uncachedEnv(b *Bench) *predicate.Env {
	env := *b.Env
	models := ml.NewRegistry()
	for _, name := range b.Env.Models.Names() {
		m, err := b.Env.Models.Get(name)
		if err != nil {
			continue
		}
		models.Register(ml.Unwrap(m))
	}
	env.Models = models
	return &env
}

func (s *SQLEngine) rules(b *Bench) []*ree.Rule {
	if s.RulesOverride != nil {
		return s.RulesOverride
	}
	return b.Rules
}

// Detect implements System: evaluate each rule as a join, one worker, no
// blocking, no caching. The resulting violations go through the same
// culprit attribution as Rock's detector — the engines run the same rules,
// so detection quality matches while the cost differs (Exp-2).
func (s *SQLEngine) Detect(b *Bench) (map[string]bool, map[[2]string]bool, error) {
	env := s.uncachedEnv(b)
	ex := exec.New(env)
	var found []*detect.Error
	seen := map[string]bool{}
	for _, r := range s.rules(b) {
		if err := r.Validate(env.DB); err != nil {
			return nil, nil, err
		}
		_, err := ex.Run(r, exec.Options{UseBlocking: false}, func(h *predicate.Valuation) bool {
			ok, evalErr := h.Frame.P0.Eval(env, h)
			if evalErr != nil || ok {
				return true
			}
			e := detect.Implicate(r, h)
			if !seen[e.Key()] {
				seen[e.Key()] = true
				found = append(found, e)
			}
			return true
		})
		if err != nil {
			return nil, nil, err
		}
	}
	found = detect.AttributeCulpritsFreq(found, detect.CulpritScoreFn(env.DB))
	cells := make(map[string]bool)
	dups := make(map[[2]string]bool)
	for _, e := range found {
		if e.Task == ree.TaskER {
			dups[e.DupEIDs] = true
			continue
		}
		for _, c := range e.Cells {
			cells[c.String()] = true
		}
	}
	return cells, dups, nil
}

// Correct implements System: iterate "UPDATE ... FROM join" rounds until a
// round changes nothing. Consequences write directly into the cloned
// database (last write wins); merges are recorded but there is no
// equivalence reasoning, so transitive identifications are missed.
func (s *SQLEngine) Correct(b *Bench) (*quality.Corrections, error) {
	env := s.uncachedEnv(b)
	ex := exec.New(env)
	out := quality.NewCorrections()
	maxRounds := sqlMaxRounds
	if s.SinglePass {
		maxRounds = 1
	}
	for round := 0; round < maxRounds; round++ {
		changed := 0
		for _, r := range s.rules(b) {
			if err := r.Validate(env.DB); err != nil {
				return nil, err
			}
			type upd struct {
				rel  string
				tid  int
				attr string
				v    data.Value
			}
			var updates []upd
			var merges [][2]string
			_, err := ex.Run(r, exec.Options{UseBlocking: false}, func(h *predicate.Valuation) bool {
				p := h.Frame.P0
				if p.Op != predicate.Eq {
					return true
				}
				switch p.Kind {
				case predicate.KEID:
					a, c := h.Tuples[p.TSlot].EID, h.Tuples[p.SSlot].EID
					if a == c {
						return true
					}
					if a > c {
						a, c = c, a
					}
					merges = append(merges, [2]string{a, c})
				case predicate.KConst:
					t := h.Tuples[p.TSlot]
					if !predicate.RawValue(t, p.ACol).Equal(p.C) {
						updates = append(updates, upd{h.Rel(p.TSlot), t.TID, p.A, p.C})
					}
				case predicate.KAttr:
					t, s := h.Tuples[p.TSlot], h.Tuples[p.SSlot]
					vt, vs := predicate.RawValue(t, p.ACol), predicate.RawValue(s, p.BCol)
					if !vs.IsNull() && !vt.Equal(vs) {
						updates = append(updates, upd{h.Rel(p.TSlot), t.TID, p.A, vs})
					} else if vs.IsNull() && !vt.IsNull() {
						updates = append(updates, upd{h.Rel(p.SSlot), s.TID, p.B, vt})
					}
				}
				return true
			})
			if err != nil {
				return nil, err
			}
			for _, u := range updates {
				env.DB.Rel(u.rel).SetValue(u.tid, u.attr, u.v)
				out.AddCell(u.rel, u.tid, u.attr, u.v)
				changed++
			}
			for _, m := range merges {
				if !out.Merged[m] {
					out.AddMerge(m[0], m[1])
					changed++
				}
			}
		}
		if changed == 0 {
			break
		}
	}
	return out, nil
}
