// Package baselines implements the competitor systems of the paper's
// evaluation (§6) and the Rock ablation variants, behind one interface so
// the benchmark harness iterates systems uniformly:
//
//	Rock       — full system: ML-rule discovery, blocked parallel
//	             detection, unified lazy chase with conflict resolution;
//	Rock_noML  — Rock without ML predicates (rules and models dropped);
//	Rock_seq   — the chase cycles ER→CR→MI→TD sequentially to fixpoint;
//	Rock_noC   — each task runs once (no recursion, no interaction);
//	ES         — evidence-set rule discovery with no pruning or sampling;
//	T5s        — a pre-trained-LM-style per-cell classifier (embedding
//	             features, heavyweight inference, weak on numeric data);
//	RB         — a Baran-style feature-engineering + tree-ensemble error
//	             model (costly feature generation, weaker on text);
//	SparkSQL / Presto — generic SQL engines executing Rock's rules as
//	             joins + UDFs: no ML blocking, no model caching, and EC by
//	             full re-execution per round.
//
// Each stand-in preserves the structural property that drives the paper's
// comparison (see DESIGN.md, "Scope and substitutions").
package baselines

import (
	"context"

	"github.com/rockclean/rock/internal/chase"
	"github.com/rockclean/rock/internal/data"
	"github.com/rockclean/rock/internal/detect"
	"github.com/rockclean/rock/internal/discovery"
	"github.com/rockclean/rock/internal/predicate"
	"github.com/rockclean/rock/internal/quality"
	"github.com/rockclean/rock/internal/ree"
	"github.com/rockclean/rock/internal/truth"
	"github.com/rockclean/rock/internal/workload"
)

// Bench is the shared context handed to each system: the dataset, a fresh
// environment over a private clone of its database, and the rule set in
// play. Benches are single-use — Correct mutates the clone.
type Bench struct {
	DS      *workload.Dataset
	Env     *predicate.Env
	Rules   []*ree.Rule
	Workers int
	// Raw is a pristine snapshot of the cloned database, for scoring
	// corrections against pre-correction values (some systems repair the
	// working copy in place).
	Raw *data.Database
	// TrainFraction sizes the labelled sample for the ML baselines — the
	// paper gives T5s and RB a training split.
	TrainFraction float64
	Seed          int64
}

// GoldOracle simulates the user Rock presents ER/CR conflicts to: it
// answers from the gold labelling. Each consultation corresponds to one
// manual confirmation in the paper's deployments.
func (b *Bench) GoldOracle() func(rel, eid, attr string, candidates []data.Value) (data.Value, bool) {
	// Index gold truths by (rel, eid, attr): the first tuple of the entity
	// carrying a labelled error decides.
	type key struct{ rel, eid, attr string }
	idx := make(map[key]data.Value)
	addAll := func(m map[string]data.Value) {
		for cellKey, v := range m {
			rel, tid, attr, ok := parseCellKey(cellKey)
			if !ok {
				continue
			}
			r := b.Raw.Rel(rel)
			if r == nil {
				continue
			}
			t := r.Get(tid)
			if t == nil {
				continue
			}
			idx[key{rel, t.EID, attr}] = v
		}
	}
	addAll(b.DS.Gold.WrongCells)
	addAll(b.DS.Gold.MissingCells)
	return func(rel, eid, attr string, candidates []data.Value) (data.Value, bool) {
		if v, ok := idx[key{rel, eid, attr}]; ok {
			return v, true
		}
		// The user also recognises a clean cell: confirm the raw value if
		// it is among the candidates.
		r := b.Raw.Rel(rel)
		if r == nil {
			return data.Value{}, false
		}
		for _, t := range r.Tuples {
			if t.EID != eid {
				continue
			}
			i := r.Schema.Index(attr)
			if i < 0 {
				return data.Value{}, false
			}
			raw := t.Values[i]
			for _, c := range candidates {
				if c.Equal(raw) {
					return raw, true
				}
			}
			return data.Value{}, false
		}
		return data.Value{}, false
	}
}

// RawValue reads a pre-correction cell value by its canonical key; it is
// the hook quality.ScoreCorrection expects.
func (b *Bench) RawValue(cellKey string) (data.Value, bool) {
	rel, tid, attr, ok := parseCellKey(cellKey)
	if !ok {
		return data.Value{}, false
	}
	r := b.Raw.Rel(rel)
	if r == nil {
		return data.Value{}, false
	}
	return r.Value(tid, attr)
}

// NewBench clones the dataset's database so runs don't contaminate each
// other, rebuilds the environment on the clone, and installs the curated
// rules.
func NewBench(ds *workload.Dataset, workers int) *Bench {
	clone := *ds
	cloneDB := ds.DB.Clone()
	clone.DB = cloneDB
	env := (&clone).BuildEnv()
	return &Bench{
		DS:            &clone,
		Env:           env,
		Rules:         clone.Rules,
		Workers:       workers,
		Raw:           cloneDB.Clone(),
		TrainFraction: 0.3,
		Seed:          42,
	}
}

// System is one evaluated system.
type System interface {
	Name() string
	// Discover mines rules (or trains the system's model); rule-less
	// systems return nil rules.
	Discover(b *Bench) ([]*ree.Rule, error)
	// Detect returns the detected error cells and duplicate pairs.
	Detect(b *Bench) (map[string]bool, map[[2]string]bool, error)
	// Correct returns the system's corrections.
	Correct(b *Bench) (*quality.Corrections, error)
}

// --- Rock and variants ---

// RockVariant configures Rock proper and its three ablations.
type RockVariant struct {
	VariantName string
	NoML        bool
	Lazy        bool
	Blocking    bool
	// taskRounds, when positive, chases the four tasks one after another
	// (ER→CR→MI→TD), each for at most taskRounds rounds, instead of one
	// fixpoint over every rule; cycle repeats that pass until one deduces
	// nothing. Rock_seq runs each task to its fixpoint and cycles; Rock_noC
	// runs each task for one round, once.
	taskRounds int
	cycle      bool
}

// maxRounds bounds Rock_seq's per-task fixpoints and its cycles, as the
// chase bounds its own Run.
const maxRounds = 100

// Rock returns the full system.
func Rock() *RockVariant {
	return &RockVariant{VariantName: "Rock", Lazy: true, Blocking: true}
}

// RockNoML returns Rock without ML predicates.
func RockNoML() *RockVariant {
	return &RockVariant{VariantName: "Rock_noML", NoML: true, Lazy: true, Blocking: true}
}

// RockSeq returns the task-sequential variant.
func RockSeq() *RockVariant {
	return &RockVariant{VariantName: "Rock_seq", taskRounds: maxRounds, cycle: true, Lazy: true, Blocking: true}
}

// RockNoC returns the single-pass variant.
func RockNoC() *RockVariant {
	return &RockVariant{VariantName: "Rock_noC", taskRounds: 1, Lazy: true, Blocking: true}
}

// Name implements System.
func (v *RockVariant) Name() string { return v.VariantName }

// rules returns the bench rules under the variant's ML policy.
func (v *RockVariant) rules(b *Bench) []*ree.Rule {
	if !v.NoML {
		return b.Rules
	}
	var out []*ree.Rule
	for _, r := range b.Rules {
		if !r.HasML() {
			out = append(out, r)
		}
	}
	return out
}

// Discover implements System: Rock's miner with sampling and pruning; the
// noML variant mines without ML predicates in the space.
func (v *RockVariant) Discover(b *Bench) ([]*ree.Rule, error) {
	opts := discovery.DefaultOptions()
	opts.SampleRatio = 0.5
	opts.MaxPairs = 30000
	opts.Seed = b.Seed
	// The paper mines with support 1e-8 over 10^16+ candidate pairs; the
	// laptop-scale equivalent keeps rules witnessed by a non-trivial
	// fraction of the (much smaller) pair population.
	opts.MinSupport = 1e-3
	if !v.NoML {
		opts.MLModels = []string{"M_ER"}
	}
	var all []*ree.Rule
	for _, rel := range b.Env.DB.Names() {
		m := discovery.NewMiner(b.Env, rel, opts)
		rules, _, err := m.Discover()
		if err != nil {
			return nil, err
		}
		all = append(all, rules...)
	}
	return all, nil
}

// Detect implements System: the blocked parallel detector.
func (v *RockVariant) Detect(b *Bench) (map[string]bool, map[[2]string]bool, error) {
	o := detect.DefaultOptions()
	o.Workers = b.Workers
	o.UseBlocking = v.Blocking
	d := detect.New(b.Env, v.rules(b), o)
	errs, err := d.Detect()
	if err != nil {
		return nil, nil, err
	}
	return collectDetection(errs)
}

// Correct implements System: the chase with ground truth, escalating
// ER/CR conflicts to the simulated user (the paper presents such
// conflicts to users; see Report.OracleCalls for the manual-effort count).
func (v *RockVariant) Correct(b *Bench) (*quality.Corrections, error) {
	gamma := b.DS.Gamma
	if gamma == nil {
		gamma = truth.NewFixSet()
	}
	opts := chase.Options{Lazy: v.Lazy, UseBlocking: v.Blocking, Predication: v.Blocking,
		Oracle: b.GoldOracle(), EIDRefs: b.DS.EIDRefs}
	rules := v.rules(b)
	eng := chase.New(b.Env, rules, gamma, opts)
	if err := v.chase(eng, rules); err != nil {
		return nil, err
	}
	return ExtractCorrections(eng.Truth(), b.Env.DB, gamma), nil
}

// chase runs the variant's schedule on one engine, so the fix set, the
// order log, the resolved cells and the oracle memo carry from task to
// task.
func (v *RockVariant) chase(eng *chase.Engine, rules []*ree.Rule) error {
	if v.taskRounds == 0 {
		_, err := eng.Run()
		return err
	}
	byTask := map[ree.Task][]*ree.Rule{}
	for _, r := range rules {
		byTask[r.TaskOf()] = append(byTask[r.TaskOf()], r)
	}
	for pass := 0; pass < maxRounds; pass++ {
		applied := len(eng.Report().Applied)
		for _, task := range []ree.Task{ree.TaskER, ree.TaskCR, ree.TaskMI, ree.TaskTD} {
			if len(byTask[task]) == 0 {
				continue
			}
			if _, err := eng.RunRules(context.Background(), byTask[task], v.taskRounds); err != nil {
				return err
			}
		}
		if !v.cycle || len(eng.Report().Applied) == applied {
			break
		}
	}
	return nil
}

// collectDetection folds detector errors into score inputs.
func collectDetection(errs []*detect.Error) (map[string]bool, map[[2]string]bool, error) {
	cells := make(map[string]bool)
	dups := make(map[[2]string]bool)
	for _, e := range errs {
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

// ExtractCorrections diffs a chased fix set against the raw database:
// every validated cell differing from the stored value is a repair, every
// entity class yields its merge pairs, and every validated order pair is a
// TD deduction. What the seeded ground truth Γ already held counts too —
// the paper's ground truth is part of the fix process — so the third
// argument, Γ itself, is not consulted.
func ExtractCorrections(u *truth.FixSet, db *data.Database, _ *truth.FixSet) *quality.Corrections {
	c := quality.NewCorrections()
	// Only a tuple whose EID is in the entity class of a validated cell
	// can differ from U, so each relation U validates a cell of is walked
	// once, keyed by EID, and only those tuples are compared.
	type cell struct {
		attr string
		v    data.Value
	}
	byEID := map[string]map[string][]cell{}
	u.ForEachCell(func(rel, root, attr string, v data.Value) {
		m := byEID[rel]
		if m == nil {
			m = map[string][]cell{}
			byEID[rel] = m
		}
		for _, eid := range u.ClassMembers(root) {
			m[eid] = append(m[eid], cell{attr, v})
		}
	})
	for relName, cells := range byEID {
		rel := db.Rel(relName)
		if rel == nil {
			continue
		}
		for _, t := range rel.Tuples {
			for _, cl := range cells[t.EID] {
				if i := rel.Schema.Index(cl.attr); i >= 0 && !cl.v.Equal(t.Values[i]) {
					c.AddCell(relName, t.TID, cl.attr, cl.v)
				}
			}
		}
	}
	for _, class := range u.Classes() {
		for i := 0; i < len(class); i++ {
			for j := i + 1; j < len(class); j++ {
				c.AddMerge(class[i], class[j])
			}
		}
	}
	for key, o := range u.Orders() {
		rel, attr := splitOrderKey(key)
		if rel == "" {
			continue
		}
		// All validated pairs count — orders seeded from Γ's timestamps
		// are assertions the system stands behind just like deduced ones.
		for _, p := range o.Pairs() {
			c.AddOrder(rel, attr, p[0], p[1])
		}
	}
	return c
}

func splitOrderKey(key string) (rel, attr string) {
	for i := len(key) - 1; i >= 0; i-- {
		if key[i] == '.' {
			return key[:i], key[i+1:]
		}
	}
	return "", ""
}
