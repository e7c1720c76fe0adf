package discovery

import (
	"math"
	"sort"

	"github.com/rockclean/rock/internal/exec"
	"github.com/rockclean/rock/internal/ml"
	"github.com/rockclean/rock/internal/predicate"
	"github.com/rockclean/rock/internal/ree"
)

// ruleFeatures encodes a rule for the subjective scoring model of [37]:
// objective measures (support, confidence), structural features (size,
// ML usage) and the task type. The model learns user preference over
// these.
func ruleFeatures(r *ree.Rule) []float64 {
	f := make([]float64, 9)
	f[0] = r.Confidence
	f[1] = math.Log1p(r.Support*1e6) / 14 // compress the tiny supports
	f[2] = float64(len(r.X)) / 5
	if r.HasML() {
		f[3] = 1
	}
	switch r.TaskOf() {
	case ree.TaskER:
		f[4] = 1
	case ree.TaskCR:
		f[5] = 1
	case ree.TaskTD:
		f[6] = 1
	case ree.TaskMI:
		f[7] = 1
	}
	f[8] = 1 // bias
	return f
}

// Preference is the learned user-preference model: Rock collects labels
// ("useful" / "not useful") from data-quality experts or from the novice
// workflow of §5.4 (confirming detected errors on a sample), then trains a
// scoring model and ranks candidate rules by a blend of subjective and
// objective measures.
type Preference struct {
	model *ml.LogisticRegression
	// Labeled counts training instances; an unlabeled preference scores
	// every rule 0.5 (neutral).
	Labeled int
}

// NewPreference creates an untrained preference model.
func NewPreference() *Preference {
	return &Preference{model: ml.NewLogisticRegression(9)}
}

// Learn (re)trains from labelled rules; it may be called incrementally as
// more feedback arrives (the anytime workflow gathers labels between
// batches).
func (p *Preference) Learn(rules []*ree.Rule, useful []bool) {
	xs := make([][]float64, len(rules))
	for i, r := range rules {
		xs[i] = ruleFeatures(r)
	}
	p.model = ml.NewLogisticRegression(9)
	p.model.Fit(xs, useful, 11)
	p.Labeled += len(rules)
}

// Score returns the subjective usefulness of a rule in [0, 1].
func (p *Preference) Score(r *ree.Rule) float64 {
	if p.Labeled == 0 {
		return 0.5
	}
	return p.model.Score(ruleFeatures(r))
}

// RankOptions tunes top-k selection.
type RankOptions struct {
	K int
	// SubjectiveWeight blends the preference score with the objective
	// measures (0 = objective only).
	SubjectiveWeight float64
	// Diversify greedily penalises rules covering the same consequence
	// attribute as already-picked ones — the "top-k diversified" option of
	// paper §5.2.
	Diversify bool
}

// TopK ranks rules by blended score and returns the best k.
func TopK(rules []*ree.Rule, pref *Preference, opts RankOptions) []*ree.Rule {
	if opts.K <= 0 || opts.K > len(rules) {
		opts.K = len(rules)
	}
	type scored struct {
		r *ree.Rule
		s float64
	}
	items := make([]scored, len(rules))
	for i, r := range rules {
		obj := 0.7*r.Confidence + 0.3*math.Min(1, r.Support*1e6)
		s := obj
		if pref != nil {
			w := opts.SubjectiveWeight
			s = (1-w)*obj + w*pref.Score(r)
		}
		r.Score = s
		items[i] = scored{r, s}
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].s != items[j].s {
			return items[i].s > items[j].s
		}
		return items[i].r.String() < items[j].r.String()
	})
	if !opts.Diversify {
		out := make([]*ree.Rule, 0, opts.K)
		for _, it := range items[:opts.K] {
			out = append(out, it.r)
		}
		return out
	}
	// Greedy diversification: each additional rule on an already-covered
	// consequence attribute pays a penalty.
	covered := map[string]int{}
	var out []*ree.Rule
	remaining := append([]scored(nil), items...)
	for len(out) < opts.K && len(remaining) > 0 {
		bestI, bestS := -1, math.Inf(-1)
		for i, it := range remaining {
			key := consKey(it.r)
			s := it.s / float64(1+covered[key])
			if s > bestS {
				bestI, bestS = i, s
			}
		}
		pick := remaining[bestI]
		covered[consKey(pick.r)]++
		out = append(out, pick.r)
		remaining = append(remaining[:bestI], remaining[bestI+1:]...)
	}
	return out
}

func consKey(r *ree.Rule) string {
	return r.P0.String()
}

// Anytime yields rules in ranked batches: each call to Next returns the
// next best batch (paper §3: "an anytime algorithm for successive REE++
// mining via lazy evaluation"), and Feedback folds user labels into the
// preference model so later batches re-rank.
type Anytime struct {
	pref      *Preference
	remaining []*ree.Rule
	batch     int
	subjW     float64
}

// NewAnytime creates an iterator over a mined rule pool.
func NewAnytime(rules []*ree.Rule, pref *Preference, batch int, subjectiveWeight float64) *Anytime {
	if batch <= 0 {
		batch = 10
	}
	if pref == nil {
		pref = NewPreference()
	}
	return &Anytime{pref: pref, remaining: append([]*ree.Rule(nil), rules...), batch: batch, subjW: subjectiveWeight}
}

// Next returns the next batch (re-ranked under the current preference);
// nil when exhausted.
func (a *Anytime) Next() []*ree.Rule {
	if len(a.remaining) == 0 {
		return nil
	}
	ranked := TopK(a.remaining, a.pref, RankOptions{K: len(a.remaining), SubjectiveWeight: a.subjW})
	n := a.batch
	if n > len(ranked) {
		n = len(ranked)
	}
	out := ranked[:n]
	picked := map[*ree.Rule]bool{}
	for _, r := range out {
		picked[r] = true
	}
	var rest []*ree.Rule
	for _, r := range a.remaining {
		if !picked[r] {
			rest = append(rest, r)
		}
	}
	a.remaining = rest
	return out
}

// Feedback incorporates user labels on previously returned rules.
func (a *Anytime) Feedback(rules []*ree.Rule, useful []bool) {
	a.pref.Learn(rules, useful)
}

// NoviceFeedback implements the user-friendly workflow of paper §5.4 for
// users who cannot rank rules directly: Rock detects errors with each
// candidate rule on a small sample, invites the user to confirm whether
// the (up to perRule) detected errors are unknown true positives, scores
// each rule by its confirmed precision, and trains the preference model
// from those derived labels. confirm receives the rule and one violating
// valuation and returns whether the user deems it a real error. The
// returned precision map (rule string → confirmed fraction) feeds
// reporting; the preference model is trained in place.
func NoviceFeedback(env *predicate.Env, rules []*ree.Rule, perRule int,
	confirm func(r *ree.Rule, h *predicate.Valuation) bool, pref *Preference) (map[string]float64, error) {

	if perRule <= 0 {
		perRule = 5
	}
	precision := make(map[string]float64, len(rules))
	var labelled []*ree.Rule
	var useful []bool
	ex := exec.New(env)
	for _, r := range rules {
		if err := r.Validate(env.DB); err != nil {
			return nil, err
		}
		asked, confirmed := 0, 0
		_, err := ex.Run(r, exec.Options{UseBlocking: true}, func(h *predicate.Valuation) bool {
			ok, evalErr := h.Frame.P0.Eval(env, h)
			if evalErr != nil || ok {
				return true
			}
			asked++
			if confirm(r, h) {
				confirmed++
			}
			return asked < perRule
		})
		if err != nil {
			return nil, err
		}
		if asked == 0 {
			// The rule found no errors on the sample: uninformative, skip.
			continue
		}
		p := float64(confirmed) / float64(asked)
		precision[r.String()] = p
		labelled = append(labelled, r)
		useful = append(useful, p >= 0.5)
	}
	if len(labelled) > 0 {
		pref.Learn(labelled, useful)
	}
	return precision, nil
}
