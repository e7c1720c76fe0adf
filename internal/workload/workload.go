// Package workload generates the evaluation datasets of paper §6. The
// paper uses three private client datasets (Bank: 11 tables, 1.5B tuples;
// Logistics: 1 table, 16M tuples; Sales: 13 tables, 0.62B tuples); this
// package substitutes deterministic synthetic generators at laptop scale
// with the same table/task structure and seeded error injection —
// duplicates, conflicts, missing values and stale values — each recorded
// in a gold labelling so detection/correction quality is measured exactly
// as the paper measures against manually checked tuples (see DESIGN.md,
// "Scope and substitutions").
package workload

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"github.com/rockclean/rock/internal/data"
	"github.com/rockclean/rock/internal/kg"
	"github.com/rockclean/rock/internal/ml"
	"github.com/rockclean/rock/internal/predicate"
	"github.com/rockclean/rock/internal/quality"
	"github.com/rockclean/rock/internal/ree"
	"github.com/rockclean/rock/internal/truth"
)

// Task is one named cleaning task of an application (e.g. Bank's CNC):
// the rules that drive it and the attributes it targets.
type Task struct {
	Name        string
	Description string
	RuleIDs     []string
	TargetAttrs []string
}

// Dataset bundles everything one application evaluation needs.
type Dataset struct {
	Name  string
	DB    *data.Database
	Gold  *quality.Gold
	Rules []*ree.Rule
	Tasks []Task
	Graph *kg.Graph
	// Gamma is the initial ground truth (the paper seeds 10,000 manually
	// checked tuples; we seed a fraction of the gold labels).
	Gamma *truth.FixSet
	// TemporalAttrs lists attributes carrying version history.
	TemporalAttrs map[string][]string // rel -> attrs
	// EIDRefs declares foreign entity references ("Rel.Attr") whose values
	// are EIDs of another relation's entities (see chase.Options.EIDRefs).
	EIDRefs map[string]bool
	// stamps carries injected per-cell timestamps per relation.
	stamps map[string]*data.TemporalRelation
}

// RulesFor returns the rules of one task (all rules when the task is the
// dataset-wide *Clean task or unknown).
func (d *Dataset) RulesFor(task string) []*ree.Rule {
	for _, t := range d.Tasks {
		if t.Name != task {
			continue
		}
		want := map[string]bool{}
		for _, id := range t.RuleIDs {
			want[id] = true
		}
		if len(want) == 0 {
			return d.Rules
		}
		var out []*ree.Rule
		for _, r := range d.Rules {
			if want[r.ID] {
				out = append(out, r)
			}
		}
		return out
	}
	return d.Rules
}

// BuildEnv constructs a fully wired evaluation environment for the
// dataset: registered similarity matchers, a trained temporal ranker, a
// trained correlation model and value predictor per relation, HER/path
// matchers over the knowledge graph, and temporal orders seeded from the
// injected timestamps.
func (d *Dataset) BuildEnv() *predicate.Env {
	env := predicate.NewEnv(d.DB)
	env.Models.Register(ml.NewCachedModel(ml.NewSimilarityMatcher("M_ER", 0.82)))
	env.Models.Register(ml.NewCachedModel(ml.NewSimilarityMatcher("M_addr", 0.82)))
	env.Models.Register(ml.NewCachedModel(ml.NewSimilarityMatcher("M_SKU", 0.82)))

	// Correlation + prediction models per relation.
	for name, rel := range d.DB.Relations {
		mc := ml.NewCorrelationModel("M_c_"+name, rel.Schema)
		mc.Train(rel.Tuples)
		env.Corr[mc.Name()] = mc
		env.Pred["M_d_"+name] = ml.NewValuePredictor("M_d_"+name, mc, rel.Tuples)
	}

	// Temporal orders from injected timestamps; a trained ranker for
	// conflict resolution.
	ti := data.NewTemporalInstance(d.DB)
	for rel, tr := range d.stamps {
		ti.Stamps[rel] = tr
	}
	ti.SeedFromTimestamps()
	env.Orders = func(rel, attr string) *data.TemporalOrder {
		return ti.Orders[rel+"."+attr]
	}
	for relName, attrs := range d.TemporalAttrs {
		rel := d.DB.Rel(relName)
		if rel == nil || len(rel.Tuples) == 0 {
			continue
		}
		ranker := ml.NewPairRanker("M_rank", rel.Schema)
		ranker.Stamps = d.stamps[relName]
		var seed []ml.RankedPair
		for _, attr := range attrs {
			o := ti.Orders[relName+"."+attr]
			if o == nil {
				continue
			}
			pairs := o.Pairs()
			for i, p := range pairs {
				if i >= 40 {
					break
				}
				seed = append(seed, ml.RankedPair{
					Older: rel.Get(p[0]), Newer: rel.Get(p[1]), Attr: attr, Leq: true,
				})
			}
		}
		ml.TrainRanker(ranker, relName, nil, nil, seed, nil, 1)
		env.Ranker = ranker
	}

	if d.Graph != nil {
		env.Graphs[d.Graph.Name] = d.Graph
		env.PathM = ml.NewPathMatcher(d.Graph, 0.3)
		for name, rel := range d.DB.Relations {
			env.Models.Register(ml.NewCachedModel(ml.NewHERMatcher(name, d.Graph, rel.Schema, 0.6)))
		}
	}
	return env
}

// SeedGamma initialises ground truth from a fraction of the gold labels —
// the analogue of the paper's 10,000 manually checked tuples — plus the
// temporal orders entailed by timestamps.
func (d *Dataset) SeedGamma(fraction float64, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	g := truth.NewFixSet()
	add := func(cellKey string, v data.Value) {
		rel, tid, attr, ok := parseCellKey(cellKey)
		if !ok {
			return
		}
		r := d.DB.Rel(rel)
		if r == nil {
			return
		}
		t := r.Get(tid)
		if t == nil {
			return
		}
		g.SetCell(rel, t.EID, attr, v)
	}
	// Sample in sorted key order: ranging over the gold maps directly
	// would consume the rng in map-iteration order, making Γ — and every
	// fix the chase deduces from it — differ from run to run despite the
	// fixed seed.
	sample := func(cells map[string]data.Value) {
		keys := make([]string, 0, len(cells))
		for k := range cells {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if rng.Float64() < fraction {
				add(k, cells[k])
			}
		}
	}
	sample(d.Gold.WrongCells)
	sample(d.Gold.MissingCells)
	// Γ⪯: orders entailed by the injected timestamps (sorted relation
	// order for a reproducible construction sequence).
	stampRels := make([]string, 0, len(d.stamps))
	for rel := range d.stamps {
		stampRels = append(stampRels, rel)
	}
	sort.Strings(stampRels)
	for _, rel := range stampRels {
		tr := d.stamps[rel]
		r := d.DB.Rel(rel)
		if r == nil {
			continue
		}
		for _, attrs := range d.TemporalAttrs {
			for _, attr := range attrs {
				type cell struct {
					tid int
					ts  int64
				}
				var cells []cell
				for _, t := range r.Tuples {
					if ts, ok := tr.Timestamp(t.TID, attr); ok {
						cells = append(cells, cell{t.TID, ts})
					}
				}
				for i := range cells {
					for j := range cells {
						if cells[i].ts < cells[j].ts {
							g.AddOrder(rel, attr, cells[i].tid, cells[j].tid, true)
						}
					}
				}
			}
		}
	}
	d.Gamma = g
}

func parseCellKey(key string) (rel string, tid int, attr string, ok bool) {
	// Format: Rel[tid].Attr (data.CellRef.String).
	lb := strings.IndexByte(key, '[')
	rb := strings.IndexByte(key, ']')
	if lb < 0 || rb < lb || rb+1 >= len(key) || key[rb+1] != '.' {
		return "", 0, "", false
	}
	rel = key[:lb]
	if _, err := fmt.Sscanf(key[lb+1:rb], "%d", &tid); err != nil {
		return "", 0, "", false
	}
	return rel, tid, key[rb+2:], true
}

// --- noise helpers ---

// typo injects a single character-level perturbation, deterministic in rng.
func typo(rng *rand.Rand, s string) string {
	if len(s) < 2 {
		return s + "x"
	}
	i := rng.Intn(len(s) - 1)
	switch rng.Intn(3) {
	case 0: // swap
		b := []byte(s)
		b[i], b[i+1] = b[i+1], b[i]
		return string(b)
	case 1: // drop
		return s[:i] + s[i+1:]
	default: // duplicate
		return s[:i+1] + s[i:i+1] + s[i+1:]
	}
}

// pick returns a deterministic pseudo-random element.
func pick[T any](rng *rand.Rand, xs []T) T { return xs[rng.Intn(len(xs))] }
