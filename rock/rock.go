// Package rock is the public API of the Rock data-cleaning system — a Go
// reproduction of "Rock: Cleaning Data by Embedding ML in Logic Rules"
// (SIGMOD-Companion 2024). Rock cleans relational data with REE++ rules —
// logic rules that may embed ML classifiers as predicates — in a unified
// process covering entity resolution (ER), conflict resolution (CR),
// missing-value imputation (MI) and timeliness deduction (TD):
//
//	pipe := rock.NewPipeline(db)
//	pipe.MustAddRule("Trans(t) ^ Trans(s) ^ t.com = s.com -> t.mfg = s.mfg")
//	report, err := pipe.Clean()
//
// The pipeline wires together the rule parser, the (optional) rule
// discovery module, the blocked parallel error detector, and the chase
// engine that deduces certain fixes from rules plus accumulated ground
// truth. See DESIGN.md for the architecture and EXPERIMENTS.md for the
// reproduction of the paper's evaluation.
package rock

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/rockclean/rock/internal/chase"
	"github.com/rockclean/rock/internal/cluster"
	"github.com/rockclean/rock/internal/data"
	"github.com/rockclean/rock/internal/detect"
	"github.com/rockclean/rock/internal/discovery"
	"github.com/rockclean/rock/internal/kg"
	"github.com/rockclean/rock/internal/ml"
	"github.com/rockclean/rock/internal/obs"
	"github.com/rockclean/rock/internal/predicate"
	"github.com/rockclean/rock/internal/quality"
	"github.com/rockclean/rock/internal/ree"
	"github.com/rockclean/rock/internal/truth"
)

// Re-exported building blocks so applications only import this package
// for common flows.
type (
	// Database is a named collection of relations.
	Database = data.Database
	// Relation is one table instance.
	Relation = data.Relation
	// Schema is a relation schema.
	Schema = data.Schema
	// Attribute is a named, typed column.
	Attribute = data.Attribute
	// Value is a typed attribute value (use S/I/F/B/TS to construct).
	Value = data.Value
	// Tuple is one row.
	Tuple = data.Tuple
	// Rule is an REE++.
	Rule = ree.Rule
	// Graph is a knowledge graph for extraction-based imputation.
	Graph = kg.Graph
	// CellRef identifies a tuple's attribute cell.
	CellRef = data.CellRef
)

// Value constructors and schema helpers, re-exported.
var (
	S         = data.S
	I         = data.I
	F         = data.F
	B         = data.B
	TS        = data.TS
	Null      = data.Null
	NewSchema = data.NewSchema
	NewRel    = data.NewRelation
	NewDB     = data.NewDatabase
	NewGraph  = kg.New
)

// MustSchema is NewSchema that panics on error; for schema literals in
// examples and tests.
func MustSchema(name string, attrs ...Attribute) *Schema {
	s, err := data.NewSchema(name, attrs...)
	if err != nil {
		panic(err)
	}
	return s
}

// MustEdge is Graph.AddEdge that panics on error; for graph literals in
// examples and tests.
func MustEdge(g *Graph, from kg.VertexID, label string, to kg.VertexID) {
	if err := g.AddEdge(from, label, to); err != nil {
		panic(err)
	}
}

// Attribute types.
const (
	TString = data.TString
	TInt    = data.TInt
	TFloat  = data.TFloat
	TBool   = data.TBool
	TTime   = data.TTime
)

// Options tunes a pipeline.
type Options struct {
	// Workers sets the cluster size: the HyperCube block count for
	// detection and the chase, and — with Parallel — the number of real
	// worker goroutines executing work units.
	Workers int
	// Parallel runs chase work units on a real goroutine worker pool of
	// size Workers (results are bit-identical to serial execution; see
	// internal/chase). When false, chase units run on a pool of one
	// worker — the serial reference every other executor is compared
	// against. Detection always executes its units on the full pool.
	Parallel bool
	// UseBlocking enables LSH blocking for ML predicates.
	UseBlocking bool
	// Predication enables the ML predication layer (paper §5.4): a
	// value-keyed embedding store and a sharded prediction cache (pair
	// models and HER) that detection fills and the chase serves from.
	// Results are bit-identical with the layer on or off;
	// Report.Predication carries the cache counters.
	Predication bool
	// Steal enables work stealing between the in-process pool's workers
	// in both the detection and chase phases. On in Rock proper; the
	// work-stealing ablation turns it off. Results are identical either
	// way — stealing only re-assigns work units. A remote coordinator
	// (Cluster) ignores it: it splits units evenly over its workers.
	Steal bool
	// Oracle, when set, answers ER/CR conflicts the learned resolvers
	// cannot decide — Rock presents such conflicts to the user.
	Oracle func(rel, eid, attr string, candidates []Value) (Value, bool)
	// Obs, when set, receives every metric and trace event of the run
	// (detection "detect.*", chase "chase.*", predication "pred.*",
	// executor "exec.*"). Nil makes Clean create a run-private registry;
	// either way Report.Metrics carries the final snapshot.
	Obs *obs.Registry
	// MaxRetries bounds how many times a panicking work unit is retried
	// (reassigned to a different worker when one is alive) before the
	// unit is given up and surfaced on Report.UnitErrors.
	MaxRetries int
	// Cluster, when set, replaces the in-process worker pool with an
	// external drain/submit implementation — in particular a
	// cluster/remote.Coordinator, which distributes chase rounds across
	// real worker processes (see README "Distributed mode"). Distributed
	// runs support batch Clean only and require a nil Oracle.
	Cluster cluster.Runner
}

// DefaultOptions returns Rock's shipped configuration.
func DefaultOptions() Options {
	return Options{
		Workers: 4, Parallel: true, UseBlocking: true, Predication: true, Steal: true,
		MaxRetries: 2,
	}
}

// Pipeline is the end-to-end cleaning flow over one database: register
// models and rules (or discover them), detect errors, correct them.
type Pipeline struct {
	db      *data.Database
	env     *predicate.Env
	rules   []*ree.Rule
	gamma   *truth.FixSet
	opts    Options
	eidRefs map[string]bool
	qmon    *quality.Monitor

	// pred is the pipeline's warm §5.4 predication layer, created lazily
	// when Options.Predication is on and shared across every Clean and
	// CleanIncremental of the pipeline — so a long-lived pipeline (rockd's
	// per-tenant state) serves later runs from caches earlier runs filled.
	// Both caches are keyed by the values they were computed from, so a
	// tuple that changes keys fresh entries and results stay bit-identical
	// to a cold layer.
	pred *ml.Predication

	ruleSeq int
}

// NewPipeline creates a pipeline over a database with default options.
func NewPipeline(db *data.Database) *Pipeline {
	return NewPipelineWith(db, DefaultOptions())
}

// NewPipelineWith creates a pipeline with explicit options.
func NewPipelineWith(db *data.Database, opts Options) *Pipeline {
	return NewPipelineOver(predicate.NewEnv(db), opts)
}

// NewPipelineOver creates a pipeline over an already wired evaluation
// environment and its database — models, ranker, graphs and the temporal
// orders detection reads — so a caller that has one (a workload dataset's
// BuildEnv) does not re-register its parts one by one.
func NewPipelineOver(env *predicate.Env, opts Options) *Pipeline {
	if opts.Workers < 1 {
		opts.Workers = 1
	}
	return &Pipeline{
		db:      env.DB,
		env:     env,
		gamma:   truth.NewFixSet(),
		opts:    opts,
		eidRefs: make(map[string]bool),
	}
}

// predication returns the pipeline's warm predication layer, creating it
// on first use; nil when Options.Predication is off.
func (p *Pipeline) predication() *ml.Predication {
	if !p.opts.Predication {
		return nil
	}
	if p.pred == nil {
		p.pred = ml.NewPredication()
	}
	return p.pred
}

// DB returns the pipeline's database.
func (p *Pipeline) DB() *data.Database { return p.db }

// RegisterMatcher registers a similarity-based Boolean ML model usable as
// a predicate M(t[A̅], s[B̅]) in rules (a Bert-style matcher stand-in;
// DESIGN.md documents the substitution).
func (p *Pipeline) RegisterMatcher(name string, threshold float64) {
	p.env.Models.Register(ml.NewCachedModel(ml.NewSimilarityMatcher(name, threshold)))
}

// RegisterGraph registers a knowledge graph and enables the extraction
// predicates vertex/HER/match/val against it: each relation gets a HER
// matcher, registered as model ml.HERName(relation).
func (p *Pipeline) RegisterGraph(g *kg.Graph, herThreshold float64) {
	p.env.Graphs[g.Name] = g
	p.env.PathM = ml.NewPathMatcher(g, 0.3)
	for name, rel := range p.db.Relations {
		p.env.Models.Register(ml.NewCachedModel(ml.NewHERMatcher(name, g, rel.Schema, herThreshold)))
	}
}

// TrainCorrelationModels fits the Mc correlation model and Md value
// predictor for every relation (named "M_c_<Rel>" and "M_d_<Rel>"),
// enabling correlation predicates and learning-based conflict resolution.
func (p *Pipeline) TrainCorrelationModels() {
	for name, rel := range p.db.Relations {
		mc := ml.NewCorrelationModel("M_c_"+name, rel.Schema)
		mc.Train(rel.Tuples)
		p.env.Corr[mc.Name()] = mc
		p.env.Pred["M_d_"+name] = ml.NewValuePredictor("M_d_"+name, mc, rel.Tuples)
	}
}

// TrainRanker trains the Mrank temporal ranking model for one relation
// with the creator–critic loop, seeded from the given currency-ordered
// tuple pairs (older before newer on attr).
func (p *Pipeline) TrainRanker(rel string, attr string, orderedPairs [][2]*Tuple) error {
	r := p.db.Rel(rel)
	if r == nil {
		return fmt.Errorf("rock: unknown relation %q", rel)
	}
	ranker := ml.NewPairRanker("M_rank", r.Schema)
	seed := make([]ml.RankedPair, 0, len(orderedPairs))
	for _, pr := range orderedPairs {
		seed = append(seed, ml.RankedPair{Older: pr[0], Newer: pr[1], Attr: attr, Leq: true})
	}
	ml.TrainRanker(ranker, rel, r.Tuples, []string{attr}, seed, nil, 2)
	p.env.Ranker = ranker
	return nil
}

// SeedOrder seeds the temporal order of rel.attr in the environment used
// by temporal predicates during detection (the chase maintains its own).
func (p *Pipeline) SeedOrder(rel, attr string, olderTID, newerTID int, strict bool) {
	p.gamma.AddOrder(rel, attr, olderTID, newerTID, strict)
	p.env.Orders = func(r, a string) *data.TemporalOrder {
		return p.gamma.OrderIfAny(r, a)
	}
}

// Validate validates a cell value as ground truth (master data).
func (p *Pipeline) Validate(rel, eid, attr string, v Value) error {
	_, conflict := p.gamma.SetCell(rel, eid, attr, v)
	if conflict != nil {
		return fmt.Errorf("rock: %s", conflict.Error())
	}
	return nil
}

// DeclareEntityRef declares that rel.attr stores EIDs of another
// relation's entities: a rule consequence equating two such attributes
// identifies the referenced entities (the paper's ϕ1 semantics).
func (p *Pipeline) DeclareEntityRef(rel, attr string) {
	p.eidRefs[rel+"."+attr] = true
}

// AddRule parses and registers a rule in the REE++ DSL.
func (p *Pipeline) AddRule(src string) (*ree.Rule, error) {
	r, err := ree.Parse(src, p.db)
	if err != nil {
		return nil, err
	}
	p.ruleSeq++
	r.ID = fmt.Sprintf("r%d", p.ruleSeq)
	p.rules = append(p.rules, r)
	return r, nil
}

// MustAddRule is AddRule that panics on error; for rule literals.
func (p *Pipeline) MustAddRule(src string) *ree.Rule {
	r, err := p.AddRule(src)
	if err != nil {
		panic(err)
	}
	return r
}

// Rules returns the registered rules.
func (p *Pipeline) Rules() []*ree.Rule { return p.rules }

// DiscoverOptions tunes rule discovery.
type DiscoverOptions struct {
	// MinSupport / MinConfidence are the objective thresholds (paper
	// defaults: 1e-8 and 0.9).
	MinSupport    float64
	MinConfidence float64
	// SampleRatio mines on a tuple sample (1.0 = all data).
	SampleRatio float64
	// MLModels offers these registered matchers as predicates.
	MLModels []string
	// TopK keeps only the best-ranked rules (0 = all).
	TopK int
}

// Discover mines REE++s from every relation and adds them to the
// pipeline's rule set; it returns the newly added rules.
func (p *Pipeline) Discover(opts DiscoverOptions) ([]*ree.Rule, error) {
	mOpts := discovery.DefaultOptions()
	if opts.MinSupport > 0 {
		mOpts.MinSupport = opts.MinSupport
	}
	if opts.MinConfidence > 0 {
		mOpts.MinConfidence = opts.MinConfidence
	}
	if opts.SampleRatio > 0 {
		mOpts.SampleRatio = opts.SampleRatio
	}
	mOpts.MLModels = opts.MLModels
	var mined []*ree.Rule
	for _, rel := range p.db.Names() {
		m := discovery.NewMiner(p.env, rel, mOpts)
		rules, _, err := m.Discover()
		if err != nil {
			return nil, err
		}
		mined = append(mined, rules...)
	}
	if opts.TopK > 0 && opts.TopK < len(mined) {
		mined = discovery.TopK(mined, nil, discovery.RankOptions{K: opts.TopK})
	}
	for _, r := range mined {
		p.ruleSeq++
		r.ID = fmt.Sprintf("r%d", p.ruleSeq)
	}
	p.rules = append(p.rules, mined...)
	return mined, nil
}

// DiscoverCross mines cross-relation rules R(t) ^ S(s) ^ X → p0 — e.g. a
// Customer's city determined by the employer Company's city — and adds
// them to the pipeline's rule set.
func (p *Pipeline) DiscoverCross(relT, relS string, opts DiscoverOptions) ([]*ree.Rule, error) {
	mOpts := discovery.DefaultOptions()
	if opts.MinSupport > 0 {
		mOpts.MinSupport = opts.MinSupport
	}
	if opts.MinConfidence > 0 {
		mOpts.MinConfidence = opts.MinConfidence
	}
	if opts.SampleRatio > 0 {
		mOpts.SampleRatio = opts.SampleRatio
	}
	rules, _, err := discovery.DiscoverCross(p.env, relT, relS, mOpts)
	if err != nil {
		return nil, err
	}
	if opts.TopK > 0 && opts.TopK < len(rules) {
		rules = discovery.TopK(rules, nil, discovery.RankOptions{K: opts.TopK})
	}
	for _, r := range rules {
		p.ruleSeq++
		r.ID = fmt.Sprintf("r%d", p.ruleSeq)
	}
	p.rules = append(p.rules, rules...)
	return rules, nil
}

// DetectedError is one detected error.
type DetectedError struct {
	RuleID string
	Task   string
	Cells  []CellRef
	// DupEIDs is set for duplicate (ER) errors.
	DupEIDs [2]string
}

// Detect runs batch error detection with the registered rules.
func (p *Pipeline) Detect() ([]DetectedError, error) {
	errs, _, err := p.detectWith(context.Background(), nil, p.opts.Obs, nil)
	return errs, err
}

// SetCluster installs an external cluster runner (typically a
// cluster/remote.Coordinator after its WaitWorkers completed) on an
// already-built pipeline — the distributed entry point for callers
// that only learn the worker set after construction.
func (p *Pipeline) SetCluster(cl cluster.Runner) { p.opts.Cluster = cl }

// Fingerprint digests the pipeline inputs that must be identical on
// every replica of a distributed run: the partition count, the
// relations with their tuple counts, and the rule IDs. The remote
// handshake compares coordinator and worker fingerprints and rejects
// mismatches before any round runs.
func (p *Pipeline) Fingerprint() string {
	rels := make([]string, 0, len(p.db.Relations))
	for name, rel := range p.db.Relations {
		rels = append(rels, fmt.Sprintf("%s:%d", name, len(rel.Tuples)))
	}
	sort.Strings(rels)
	ids := make([]string, 0, len(p.rules))
	for _, r := range p.rules {
		ids = append(ids, r.ID)
	}
	sort.Strings(ids)
	return fmt.Sprintf("w=%d;rels=%s;rules=%s",
		p.opts.Workers, strings.Join(rels, ","), strings.Join(ids, ","))
}

// FollowerEngine builds the worker-process side of a distributed run:
// a chase engine replica over this pipeline's environment, rules and
// ground truth, ready for remote.RunWorker. The pipeline must have
// been constructed by the exact steps the coordinator's was (same
// data, same matcher registrations, same training calls, same rule
// parse order — cmd/rockworker mirrors cmd/rock's setup). Detection
// is deliberately skipped: it only warms predication caches, which
// memoise pure computations, so skipping it cannot change any result.
func (p *Pipeline) FollowerEngine() *chase.Engine {
	opts := p.chaseOptions(p.predication(), obs.New(), nil)
	// The replica executes units locally when asked; it must never
	// schedule on a distributed runner itself.
	opts.Cluster = nil
	return chase.New(p.env, p.rules, p.gamma, opts)
}

// chaseOptions maps the pipeline options onto a chase run. It is the ONE
// place rock builds chase.Options — both the batch (CleanCtx) and the
// incremental (Delta.CleanIncrementalCtx) paths call it, so a field added
// to Options cannot reach one path and silently drop from the other
// again (the Predication/Pred/Span drift this builder replaced). pred
// and span may be nil (layer off / spans disabled).
func (p *Pipeline) chaseOptions(pred *ml.Predication, reg *obs.Registry, span *obs.Span) chase.Options {
	return chase.Options{
		Span:        span,
		Lazy:        true,
		UseBlocking: p.opts.UseBlocking,
		Predication: p.opts.Predication,
		Pred:        pred,
		Workers:     p.opts.Workers,
		Parallel:    p.opts.Parallel,
		Drain:       p.drain(),
		Obs:         reg,
		Oracle:      p.opts.Oracle,
		EIDRefs:     p.eidRefs,
		Cluster:     p.opts.Cluster,
	}
}

// detectOptions maps the pipeline options onto a detection run.
func (p *Pipeline) detectOptions(pred *ml.Predication, reg *obs.Registry) detect.Options {
	o := detect.DefaultOptions()
	o.Workers = p.opts.Workers
	o.UseBlocking = p.opts.UseBlocking
	o.Drain = p.drain()
	o.Pred = pred
	o.Obs = reg
	return o
}

// retryBackoff is the base backoff before a unit retry (attempt k waits
// k*retryBackoff, cut short by cancellation), in process and on a remote
// Cluster.
const retryBackoff = time.Millisecond

// drain is the one drain configuration detection and the chase share.
func (p *Pipeline) drain() cluster.Options {
	return cluster.Options{Steal: p.opts.Steal, MaxRetries: p.opts.MaxRetries, RetryBackoff: retryBackoff}
}

// detectWith runs detection, optionally filling a predication layer that
// a subsequent chase will serve from and recording into reg. span, when
// non-nil, parents the detection phase span (CleanCtx passes its root
// "clean" span). partial is true when ctx was cancelled and only part of
// the data was scanned.
func (p *Pipeline) detectWith(ctx context.Context, pred *ml.Predication, reg *obs.Registry, span *obs.Span) ([]DetectedError, bool, error) {
	dOpts := p.detectOptions(pred, reg)
	dOpts.Span = span
	d := detect.New(p.env, p.rules, dOpts)
	errs, partial, err := d.DetectCtx(ctx)
	if err != nil {
		return nil, partial, err
	}
	return detectedErrors(errs), partial, nil
}

// detectedErrors converts the detector's errors to the public type.
func detectedErrors(errs []*detect.Error) []DetectedError {
	out := make([]DetectedError, len(errs))
	for i, e := range errs {
		out[i] = DetectedError{RuleID: e.RuleID, Task: e.Task.String(), Cells: e.Cells, DupEIDs: e.DupEIDs}
	}
	return out
}

// Correction is one applied repair: a cell the clean wrote into the
// database, with the value it replaced.
type Correction struct {
	Cell  CellRef
	Old   Value
	New   Value
	IsNew bool // true when the old value was null (imputation)
}

// correctionsOf renders the cells an engine's Materialize wrote, in the
// engine's order (sorted by cell).
func correctionsOf(changes []chase.Change) []Correction {
	var out []Correction
	for _, c := range changes {
		out = append(out, Correction{Cell: c.Cell, Old: c.Old, New: c.New, IsNew: c.Old.IsNull()})
	}
	return out
}

// UnitError re-exports the cluster layer's typed work-unit failure: a
// unit that panicked on every retry or lost its node.
type UnitError = cluster.UnitError

// Report summarises a Clean run.
type Report struct {
	// Partial marks a gracefully degraded run: the deadline expired (or
	// the CleanCtx context was cancelled) mid-run, or some work units
	// failed permanently. Errors/Corrections carry everything established
	// up to that point — sound, but possibly incomplete.
	Partial bool
	// UnitErrors lists work units that exhausted their retries.
	UnitErrors []UnitError
	// Errors are the detected errors (pre-correction).
	Errors []DetectedError
	// Corrections are exactly the cells the run wrote into the database:
	// every tuple cell whose validated value in the chase's fix set
	// differs from the stored one, sorted by cell.
	Corrections []Correction
	// MergedEntities lists identified duplicate EID groups.
	MergedEntities [][]string
	// OrderedPairs counts deduced temporal-order pairs.
	OrderedPairs int
	// ChaseRounds is the number of fixpoint rounds.
	ChaseRounds int
	// UnresolvedConflicts were escalated but unanswered.
	UnresolvedConflicts int
	// OracleCalls counts user consultations.
	OracleCalls int
	// Predication carries the ML predication layer's cache counters
	// (zero value when Options.Predication is off). The layer spans the
	// whole Clean run: detection fills the prediction cache, the chase
	// serves from it.
	Predication PredicationStats
	// PredicationByRound holds one counter snapshot taken before the
	// first chase round (covering the detection phase) and one after
	// every chase round; deltas isolate per-round hit rates.
	PredicationByRound []PredicationStats
	// Assessment reports post-cleaning data quality.
	Assessment quality.Assessment
	// RoundTrace is the chase's per-round trace table (rounds, units,
	// valuations, ML calls, fixes, steals, per-node counts, duration).
	RoundTrace []ChaseRoundTrace
	// RuleProfile attributes the chase's cost to individual rules (wall
	// clock, work units, valuations, ML calls, fixes applied/rejected);
	// the Valuations/MLCalls columns sum exactly to the chase phase
	// totals. rock clean -v renders it.
	RuleProfile []RuleCost
	// MLProfile attributes ML cost to individual models (calls, wall
	// clock, predication-cache hits/misses).
	MLProfile []MLCost
	// Metrics is the unified observability snapshot of the whole run —
	// detection, chase, predication and executor counters, histograms and
	// the bounded event log. The scalar fields above are views over the
	// same registry (e.g. Metrics.Counters["chase.rounds"] ==
	// ChaseRounds); -metrics-out dumps exactly this.
	Metrics obs.Snapshot
}

// ChaseRoundTrace re-exports the chase engine's per-round trace row.
type ChaseRoundTrace = chase.RoundTrace

// RuleCost re-exports the chase engine's per-rule attribution row.
type RuleCost = chase.RuleCost

// MLCost re-exports the chase engine's per-model ML cost row.
type MLCost = chase.MLCost

// PredicationStats re-exports the predication layer's counter snapshot:
// prediction-cache hits/misses/evictions and embedding-store reuse (see
// ml.PredStats).
type PredicationStats = ml.PredStats

// Clean detects and corrects: it chases the database with the registered
// rules and ground truth, materialises the validated fixes back into the
// relations, and returns the report. CleanCtx bounds or cancels it.
func (p *Pipeline) Clean() (*Report, error) {
	return p.CleanCtx(context.Background())
}

// CleanCtx is Clean under a cancellation context. Cancelling ctx (or
// passing its deadline) does not discard the run: detection and
// the chase stop at their next cooperative checkpoint, every certain fix
// established so far is materialised, and the report comes back with
// Partial=true and a nil error.
func (p *Pipeline) CleanCtx(ctx context.Context) (*Report, error) {
	// One observability registry spans the whole run: detection records
	// "detect.*", the chase "chase.*", and Report.Metrics snapshots both.
	reg := p.opts.Obs
	if reg == nil {
		reg = obs.New()
	}
	// One predication layer spans the whole run (and, on a long-lived
	// pipeline, every later run): detection fills the value-keyed
	// prediction cache and embedding store, and the chase serves from
	// them during deduction.
	pred := p.predication()
	// Root span of the hierarchical trace (recorded only when the
	// registry has spans enabled): clean → detect/chase → round → unit →
	// exec → ml.<model>.
	root := reg.StartSpan("clean", nil)
	defer root.End()
	errs, detPartial, err := p.detectWith(ctx, pred, reg, root)
	if err != nil {
		return nil, err
	}
	eng := chase.New(p.env, p.rules, p.gamma, p.chaseOptions(pred, reg, root))
	chaseRep, err := eng.RunCtx(ctx)
	if err != nil {
		return nil, err
	}
	rep := reportOf(chaseRep)
	rep.Errors = errs
	rep.Partial = rep.Partial || detPartial
	u := eng.Truth()
	rep.MergedEntities = u.Classes()
	for _, o := range u.Orders() {
		rep.OrderedPairs += len(o.Pairs())
	}
	rep.Corrections = correctionsOf(eng.MaterializeChanges())
	violating := 0
	for _, e := range errs {
		violating += len(e.Cells)
	}
	rep.Assessment = quality.Assess(p.db, violating-len(rep.Corrections))
	// Close the root span before snapshotting so Report.Metrics carries
	// the complete trace (End is idempotent; the defer covers error
	// paths).
	root.End()
	rep.Metrics = reg.Snapshot()
	return rep, nil
}

// reportOf starts a Report from the chase's: the fields both the batch
// and the incremental clean carry over as they are.
func reportOf(c *chase.Report) *Report {
	return &Report{
		Partial:             c.Partial,
		UnitErrors:          c.UnitErrors,
		ChaseRounds:         c.Rounds,
		UnresolvedConflicts: len(c.Unresolved),
		OracleCalls:         c.OracleCalls,
		Predication:         c.Predication,
		PredicationByRound:  c.PredicationByRound,
		RoundTrace:          c.Trace,
		RuleProfile:         c.RuleProfile,
		MLProfile:           c.MLProfile,
	}
}

// ParseRules parses one rule per line (comments with '#') against the
// database schema.
func (p *Pipeline) ParseRules(text string) ([]*ree.Rule, error) {
	rules, err := ree.ParseAll(text, p.db)
	if err != nil {
		return nil, err
	}
	for _, r := range rules {
		p.ruleSeq++
		r.ID = fmt.Sprintf("r%d", p.ruleSeq)
	}
	p.rules = append(p.rules, rules...)
	return rules, nil
}
