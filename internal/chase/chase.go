// Package chase implements Rock's error-correction engine (paper §4): it
// chases the data with a set Σ of REE++s and a collection Γ of ground
// truth, deducing fixes U = (E=, E⪯) such that every fix is a logical
// consequence of Σ and Γ ("certain fixes"). It conducts ER, CR, MI and TD
// in the same process, exploiting their interactions, and resolves
// conflicts with the learning-based strategies of §4.2: M_rank confidence
// for temporal-order conflicts, argmax-M_c for imputation conflicts, and
// report-to-user for ER/CR conflicts.
package chase

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/rockclean/rock/internal/cluster"
	"github.com/rockclean/rock/internal/crystal"
	"github.com/rockclean/rock/internal/data"
	"github.com/rockclean/rock/internal/exec"
	"github.com/rockclean/rock/internal/ml"
	"github.com/rockclean/rock/internal/obs"
	"github.com/rockclean/rock/internal/predicate"
	"github.com/rockclean/rock/internal/ree"
	"github.com/rockclean/rock/internal/truth"
)

// Options tunes a chase run.
type Options struct {
	// MaxRounds bounds the fixpoint loop (safety valve; 0 = default 100).
	MaxRounds int
	// Workers is the cluster size: it sets the HyperCube block count and
	// — with Parallel — the size of the goroutine worker pool.
	Workers int
	// Parallel executes each round's work units on a pool of Workers
	// goroutines instead of a pool of one — the serial reference. The
	// block count is Workers either way, so both plan the same units, and
	// the result is bit-identical: units enumerate against the immutable
	// start-of-round fix set, buffer their candidate fixes, and the buffers
	// merge in deterministic (rule ID, unit part) order before the serial
	// apply step.
	Parallel bool
	// Drain is handed unchanged to every round's drain: work stealing (on
	// in Rock proper, off in the §5.2/§6 work-stealing ablation — the fix
	// set is identical either way), the retry policy for panicking units
	// (cluster.Retry; failures land on Report.UnitErrors) and, in tests,
	// fault injection.
	Drain cluster.Options
	// Lazy enables the lazy-activation machinery (rule activation by fix
	// kind + dirty-tuple filtering). Off, every round re-enumerates every
	// rule over all data — the ablation baseline (DESIGN.md §ablations).
	Lazy bool
	// UseBlocking enables LSH blocking for ML predicates.
	UseBlocking bool
	// Predication enables the ML predication layer (paper §5.4):
	// embeddings and model confidences (pair models and HER) serve from
	// sharded bounded caches keyed by the values they were computed
	// from, so a pair detection scored is a hit here, and a pair one
	// round scored is a hit in every later one. Results are
	// bit-identical with the layer on or off (the caches memoise pure
	// computations); Report.Predication carries the cache counters.
	Predication bool
	// Pred, when set (and Predication is on), is a shared predication
	// layer instead of an engine-private one — the pipeline passes the
	// layer its detection phase already filled, so chase rounds serve
	// detection-scored pairs as hits. Every entry is keyed by value, so
	// the layer needs nothing from the engine as fixes land.
	Pred *ml.Predication
	// Oracle simulates the user to whom Rock presents ER/CR conflicts
	// (paper §4.2, case (1)): given the conflicting cell and the candidate
	// values, it returns the correct value. Nil leaves such conflicts
	// unresolved (reported in the run summary). Every consultation counts
	// toward Report.OracleCalls — the manual-effort metric the paper's
	// bank client tracks ("reduces manual efforts by 8×").
	Oracle func(rel, eid, attr string, candidates []data.Value) (data.Value, bool)
	// Obs receives every metric and trace event the engine records
	// (counters "chase.*", histograms, the per-round event log). Nil
	// makes the engine create a private registry, so Report fields —
	// which are views over the registry — are always backed by one.
	// Share a registry across detection and chase (as rock.Pipeline
	// does) to get one run-wide metrics dump.
	Obs *obs.Registry
	// EIDRefs declares foreign entity references: "Rel.Attr" keys whose
	// values are EIDs of another relation's entities. A rule consequence
	// equating two such attributes identifies the referenced entities —
	// the paper's ϕ1 ("t.pid = s.pid ... identifies two persons") — rather
	// than overwriting either value.
	EIDRefs map[string]bool
	// Cluster, when non-nil, replaces the engine-private in-process worker
	// pool with a caller-supplied one, used as given whatever Parallel
	// says. When it additionally implements
	// DistRunner (the remote coordinator does), rounds run distributed:
	// each round ships a preamble (the fix-set journal since the last one)
	// to the worker replicas, submits metadata-only units, and reads the
	// deduced fixes back from TakeResults — the merge/apply step stays
	// local and serial, so the result is bit-identical to the in-process
	// run. Distributed runs require replicas built from the same
	// deterministic pipeline (same data, rules, models, Workers) and a nil
	// (or replica-identical deterministic) Oracle.
	Cluster cluster.Runner
	// Span, when non-nil, parents the engine's phase span (rock threads
	// its root "clean" span here). Observed only while the registry has
	// spans enabled; tracing never changes the chase result.
	Span *obs.Span
}

// DefaultOptions is the configuration Rock ships with.
func DefaultOptions() Options {
	return Options{
		Lazy: true, UseBlocking: true, Workers: 4, Parallel: true, Predication: true,
		Drain: cluster.Options{Steal: true, MaxRetries: 2, RetryBackoff: time.Millisecond},
	}
}

// FixKind classifies a deduced fix.
type FixKind int

// Fix kinds.
const (
	FixMerge FixKind = iota
	FixSeparate
	FixCell
	FixOrder
)

// Fix is one deduced fix, recorded for reporting and for rebuilding orders
// during TD conflict resolution.
type Fix struct {
	Kind       FixKind
	Rel, Attr  string
	EID1, EID2 string
	TID        int // tuple whose cell is fixed (FixCell)
	TID1, TID2 int // ordered pair (FixOrder): TID1 ⪯/≺ TID2
	Value      data.Value
	Strict     bool
	RuleID     string
}

// String renders the fix.
func (f Fix) String() string {
	switch f.Kind {
	case FixMerge:
		return fmt.Sprintf("merge(%s, %s) by %s", f.EID1, f.EID2, f.RuleID)
	case FixSeparate:
		return fmt.Sprintf("separate(%s, %s) by %s", f.EID1, f.EID2, f.RuleID)
	case FixCell:
		return fmt.Sprintf("set %s.%s of %s = %v by %s", f.Rel, f.Attr, f.EID1, f.Value, f.RuleID)
	case FixOrder:
		op := "<="
		if f.Strict {
			op = "<"
		}
		return fmt.Sprintf("order %s.%s: %d %s %d by %s", f.Rel, f.Attr, f.TID1, op, f.TID2, f.RuleID)
	}
	return "?"
}

// UnresolvedConflict is an ER/CR conflict presented to the user
// (paper §4.2, resolution case (1)).
type UnresolvedConflict struct {
	Conflict *truth.Conflict
	Fix      Fix
}

// Report summarises a chase run.
type Report struct {
	Rounds int
	// Partial marks a gracefully degraded run: the chase was cancelled
	// (deadline or explicit cancel) or some work units failed permanently,
	// and Applied carries the certain fixes accumulated up to that point
	// instead of the full fixpoint. Inspect UnitErrors for unit failures.
	Partial bool
	// UnitErrors lists work units that panicked on every retry (or lost
	// their node with no survivor); each failure also sets Partial.
	UnitErrors  []cluster.UnitError
	Applied     []Fix
	Unresolved  []UnresolvedConflict
	ResolvedTD  int // temporal conflicts resolved by M_rank confidence
	ResolvedMI  int // imputation conflicts resolved by argmax M_c
	OracleCalls int // ER/CR conflicts escalated to the user
	Valuations  int
	MLCalls     int
	RetractedTD int
	// WallClock is the real elapsed time of the chase rounds (enumeration
	// plus merge); with Options.Parallel the enumeration phase genuinely
	// overlaps on the worker pool.
	WallClock time.Duration
	// Predication carries the ML predication layer's cumulative cache
	// counters (prediction hits/misses/evictions, embedding reuse); zero
	// when Options.Predication is off.
	Predication ml.PredStats
	// PredicationByRound snapshots the cumulative Predication counters
	// once before the first chase round (the baseline: with a shared
	// layer it covers the detection phase) and then at the end of every
	// round. Deltas between consecutive entries give per-round rates:
	// once the caches are warm, steady-state rounds should serve almost
	// entirely from them.
	PredicationByRound []ml.PredStats
	// Trace is the per-round trace table: one row per chase round with
	// the round's work-unit, valuation, fix, steal and timing detail
	// (rock clean -v renders it).
	Trace []RoundTrace
	// RuleProfile attributes the chase's cost to individual rules: one
	// row per rule that generated work, sorted by rule ID. Wall is the
	// sum of the rule's unit costs (enumeration time — round wall clock
	// additionally includes the serial merge), and the Valuations/MLCalls
	// columns accumulate from the same per-unit stats as the scalar
	// totals above, so their sums match exactly.
	RuleProfile []RuleCost
	// MLProfile attributes ML cost to individual models: calls and wall
	// time measured at the predicate-evaluation site, cache hits/misses
	// from the predication layer when it is on. Sorted by model name.
	MLProfile []MLCost
	// Metrics is the engine's observability snapshot, taken when a run
	// returns. The scalar fields above (Rounds,
	// Valuations, MLCalls, WallClock) are views over the same registry,
	// so Metrics.Counters["chase.rounds"] == Rounds etc. — exactly one
	// source of truth.
	Metrics obs.Snapshot
}

// RuleCost is one row of the per-rule cost-attribution profile.
type RuleCost struct {
	Rule       string        `json:"rule"`
	Units      int           `json:"units"`
	Wall       time.Duration `json:"wall_ns"`
	Valuations int           `json:"valuations"`
	MLCalls    int           `json:"ml_calls"`
	Applied    int           `json:"applied"`
	Rejected   int           `json:"rejected"`
}

// MLCost is one row of the per-model ML cost profile.
type MLCost struct {
	Model       string        `json:"model"`
	Calls       uint64        `json:"calls"`
	Wall        time.Duration `json:"wall_ns"`
	CacheHits   uint64        `json:"cache_hits"`
	CacheMisses uint64        `json:"cache_misses"`
}

// RoundTrace is one row of the per-round trace table.
type RoundTrace struct {
	Round      int            `json:"round"`
	Rules      int            `json:"rules"` // active rules this round
	Units      int            `json:"units"` // work units executed
	Valuations int            `json:"valuations"`
	MLCalls    int            `json:"ml_calls"`
	Applied    int            `json:"applied"`  // fixes accepted into U
	Rejected   int            `json:"rejected"` // deduped candidates not accepted
	Steals     int            `json:"steals"`   // work steals during the round's drain
	NodeUnits  map[string]int `json:"node_units"`
	Duration   time.Duration  `json:"duration_ns"`
}

// Engine chases one database with one rule set.
type Engine struct {
	env   *predicate.Env
	exec  *exec.Executor
	rules []*ree.Rule
	u     *truth.FixSet
	opts  Options

	// orderLog records accepted order fixes per rel.attr so a losing fix
	// can be retracted by rebuilding the order.
	orderLog map[string][]Fix
	// tuplesByEID indexes tuples by their raw EID per relation for dirty
	// propagation and the corrections diff (indexEIDs).
	tuplesByEID map[string]map[string][]*data.Tuple
	// eidShape is each relation's (NextTID, Len) when its tuplesByEID
	// entry was built. Updates rewrite values, never EIDs, so a relation
	// whose shape has not moved keeps its entry.
	eidShape map[string][2]int
	// blocks caches the TID-partition of every relation across rounds:
	// relations never gain or lose tuples during a run, so the round loop
	// reuses one partition instead of rebuilding it every round. Reset
	// when the incremental path absorbs inserts.
	blocks map[string][][]*data.Tuple
	// cl is the run-wide worker pool (in-process by default, the remote
	// coordinator when Options.Cluster supplies one); dist is cl when it
	// runs rounds distributed, nil otherwise.
	cl   cluster.Runner
	dist DistRunner
	// lastAccepted carries the previous round's accepted fixes into the
	// next distributed round's preamble (workers derive their dirty set
	// and shadow marking from it, mirroring the post-merge bookkeeping);
	// shipped is the fix-set journal mark the last preamble ended at.
	lastAccepted []Fix
	shipped      int
	// follow* hold a worker replica's prepared round (see FollowRound).
	followWork  []unitWork
	followDirty map[string]map[int]bool
	// oracleMemo caches user answers per (rel, entity-class, attr): the
	// user answers each question once.
	oracleMemo map[string]data.Value
	// resolvedCells marks cells whose value was fixed by a resolution
	// (M_c margin or user): later conflicting candidates cannot re-open
	// the decision through the model — decisions are sticky, which both
	// matches the certain-fix discipline and guarantees convergence.
	resolvedCells map[string]bool

	// pred is the §5.4 predication layer (nil when Options.Predication is
	// off): its EmbedStore backs the executor's blocking vectors and its
	// PredCache backs every registered model — pair models and HER
	// matchers — via PredicatedModel.
	pred *ml.Predication

	// obs is the run's observability registry (Options.Obs or an
	// engine-private one — never nil). The scalar Report fields are views
	// over its "chase.*" counters, refreshed by syncReport.
	obs *obs.Registry

	// phaseSpan is the open "chase" span while a run is in flight (nil
	// when spans are disabled — every span method is nil-safe). Round
	// and unit spans parent under it.
	phaseSpan *obs.Span
	// ruleCosts accumulates the per-rule attribution rows; written only
	// by the serial merge/apply steps, so no locking is needed.
	ruleCosts map[string]*RuleCost

	// ctx is the run's cancellation context (RunCtx/RunIncrementalCtx;
	// context.Background() otherwise). Checked between rounds here,
	// between units by the cluster drain, and inside enumeration by the
	// executor. cancelled latches once any of those observed a cancel.
	ctx       context.Context
	cancelled bool

	// mu guards the only engine state deduction writes from worker
	// goroutines: the oracle memo and Report.OracleCalls (the user answers
	// each question once, whichever unit asks first). Everything else a
	// unit produces goes into its own UnitOutcome, and the fix set u is
	// read-only during a round, mutated only by the serial merge step.
	mu sync.Mutex

	report Report
}

// New creates an engine. gamma is the ground truth Γ; the engine chases a
// clone of it, so gamma itself is never mutated. rules is Σ. The engine
// evaluates through its own copy of env (see below); the one write to the
// shared env is that, with Options.Predication on, New re-registers every
// model in env.Models wrapped in the predication layer, as detect.New
// does.
func New(env *predicate.Env, rules []*ree.Rule, gamma *truth.FixSet, opts Options) *Engine {
	if opts.MaxRounds == 0 {
		opts.MaxRounds = 100
	}
	if opts.Workers < 1 {
		opts.Workers = 1
	}
	// The engine owns a shallow copy of the environment: the ValueOf and
	// Orders hooks wired below read this engine's fix set and must not
	// outlive it on the caller's env (detection reads raw values). Models,
	// graphs and the database stay shared.
	own := *env
	e := &Engine{
		env:           &own,
		rules:         rules,
		u:             gamma.Clone(),
		opts:          opts,
		orderLog:      make(map[string][]Fix),
		tuplesByEID:   make(map[string]map[string][]*data.Tuple),
		eidShape:      make(map[string][2]int),
		oracleMemo:    make(map[string]data.Value),
		resolvedCells: make(map[string]bool),
		ruleCosts:     make(map[string]*RuleCost),
		ctx:           context.Background(),
	}
	e.obs = opts.Obs
	if e.obs == nil {
		e.obs = obs.New()
	}
	// One worker pool for the whole run: the consistent-hash ring and
	// scheduler are built once here and drained by every round (a drain
	// leaves the scheduler empty, so rounds can reuse it). The serial
	// reference is a pool of one; a caller-supplied Runner (the remote
	// coordinator) takes the pool's place.
	switch {
	case opts.Cluster != nil:
		e.cl = opts.Cluster
	case opts.Parallel:
		e.cl = cluster.New(opts.Workers)
	default:
		e.cl = cluster.New(1)
	}
	e.cl.SetObs(e.obs, "chase")
	e.dist, _ = e.cl.(DistRunner)
	e.indexEIDs()
	// Wire the chase semantics into the environment: values read through
	// the fix set (validated first, raw otherwise) and temporal predicates
	// read the validated orders.
	e.env.ValueOf = func(rel string, t *data.Tuple, attr string) (data.Value, bool) {
		if v, ok := e.u.Cell(rel, t.EID, attr); ok {
			return v, true
		}
		r := e.env.DB.Rel(rel)
		if r == nil {
			return data.Value{}, false
		}
		i := r.Schema.Index(attr)
		if i < 0 || i >= len(t.Values) {
			return data.Value{}, false
		}
		return t.Values[i], true
	}
	e.env.Orders = func(rel, attr string) *data.TemporalOrder {
		return e.u.OrderIfAny(rel, attr)
	}
	e.exec = exec.New(e.env)
	e.exec.SetObs(e.obs)
	// Interned fast path: the executor compares dictionary ids of raw
	// values, while ValueOf reads validated cells first — so it must know
	// which tuples' view may differ from raw data. Seed that shadow set
	// with every tuple whose entity class carries a validated cell in Γ;
	// the merge step extends it as fixes land (same granularity as dirty
	// propagation). With tracking registered, equality joins and constant
	// predicates run interned for the (vast) unshadowed majority.
	shadow := make(map[string]map[int]bool)
	e.u.ForEachCell(func(rel, eidRoot, _ string, _ data.Value) {
		idx := e.tuplesByEID[rel]
		if idx == nil {
			return
		}
		for _, member := range e.u.ClassMembers(eidRoot) {
			for _, t := range idx[member] {
				m := shadow[rel]
				if m == nil {
					m = make(map[int]bool)
					shadow[rel] = m
				}
				m[t.TID] = true
			}
		}
	})
	e.exec.SetShadowTracking(shadow)
	if opts.Predication {
		if opts.Pred != nil {
			e.pred = opts.Pred
		} else {
			e.pred = ml.NewPredication()
		}
		// Re-register every model read through the shared prediction
		// cache. Unwrap first so a model's private memo (NewCachedModel)
		// doesn't double-key the same pair; the wrapped models are pure
		// memoisers, so engines sharing the env (with the layer on or off)
		// see identical predictions.
		for _, name := range env.Models.Names() {
			if m, err := env.Models.Get(name); err == nil {
				env.Models.Register(e.pred.Wrap(ml.Unwrap(m)))
			}
		}
		e.exec.SetEmbedStore(e.pred.Embeds)
	}
	return e
}

// indexEIDs (re)builds the EID index of every relation whose NextTID or
// Len moved since it was last indexed — every relation, the first time.
func (e *Engine) indexEIDs() {
	for name, rel := range e.env.DB.Relations {
		shape := [2]int{rel.NextTID(), rel.Len()}
		if _, ok := e.tuplesByEID[name]; ok && e.eidShape[name] == shape {
			continue
		}
		idx := make(map[string][]*data.Tuple)
		for _, t := range rel.Tuples {
			idx[t.EID] = append(idx[t.EID], t)
		}
		e.tuplesByEID[name] = idx
		e.eidShape[name] = shape
	}
}

// Truth exposes the engine's fix set U (read-mostly; mutate via the chase).
func (e *Engine) Truth() *truth.FixSet { return e.u }

// Report returns the run summary; valid after Run.
func (e *Engine) Report() *Report {
	e.syncReport()
	return &e.report
}

// Obs exposes the engine's observability registry (never nil).
func (e *Engine) Obs() *obs.Registry { return e.obs }

// syncReport refreshes the scalar Report fields from the registry — the
// fields are views, the registry is the source of truth.
func (e *Engine) syncReport() {
	e.report.Rounds = int(e.obs.CounterValue("chase.rounds"))
	e.report.Valuations = int(e.obs.CounterValue("chase.valuations"))
	e.report.MLCalls = int(e.obs.CounterValue("chase.ml_calls"))
	e.report.WallClock = time.Duration(e.obs.CounterValue("chase.wall_ns"))
	ids := make([]string, 0, len(e.ruleCosts))
	for id := range e.ruleCosts {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	e.report.RuleProfile = e.report.RuleProfile[:0]
	for _, id := range ids {
		e.report.RuleProfile = append(e.report.RuleProfile, *e.ruleCosts[id])
	}
}

// ruleCost returns (creating on first use) the attribution row of a rule.
// Callers are the serial merge/apply steps only.
func (e *Engine) ruleCost(id string) *RuleCost {
	rc := e.ruleCosts[id]
	if rc == nil {
		rc = &RuleCost{Rule: id}
		e.ruleCosts[id] = rc
	}
	return rc
}

// mlProfileFrom derives the per-model ML cost rows from a registry
// snapshot: the executor publishes "exec.ml.<model>.calls/.wall_ns"
// counters, the predication layer "pred.model.<model>.hits/.misses"
// gauges. Models appearing in either source get a row.
func mlProfileFrom(snap obs.Snapshot) []MLCost {
	byModel := map[string]*MLCost{}
	get := func(m string) *MLCost {
		c := byModel[m]
		if c == nil {
			c = &MLCost{Model: m}
			byModel[m] = c
		}
		return c
	}
	for name, v := range snap.Counters {
		rest, ok := strings.CutPrefix(name, "exec.ml.")
		if !ok {
			continue
		}
		if m, ok := strings.CutSuffix(rest, ".calls"); ok {
			get(m).Calls += v
		} else if m, ok := strings.CutSuffix(rest, ".wall_ns"); ok {
			get(m).Wall += time.Duration(v)
		}
	}
	for name, v := range snap.Gauges {
		rest, ok := strings.CutPrefix(name, "pred.model.")
		if !ok {
			continue
		}
		if m, ok := strings.CutSuffix(rest, ".hits"); ok {
			get(m).CacheHits = uint64(v)
		} else if m, ok := strings.CutSuffix(rest, ".misses"); ok {
			get(m).CacheMisses = uint64(v)
		}
	}
	names := make([]string, 0, len(byModel))
	for m := range byModel {
		names = append(names, m)
	}
	sort.Strings(names)
	out := make([]MLCost, 0, len(names))
	for _, m := range names {
		out = append(out, *byModel[m])
	}
	return out
}

// finish seals the report at the end of a run: sync the view fields and
// snapshot the full registry into Report.Metrics.
func (e *Engine) finish() {
	e.phaseSpan.End()
	e.phaseSpan = nil
	e.syncReport()
	e.report.Metrics = e.obs.Snapshot()
	e.report.MLProfile = mlProfileFrom(e.report.Metrics)
}

// Run executes the chase to its Church-Rosser fixpoint and returns the
// report. The result is independent of rule order (verified by tests).
func (e *Engine) Run() (*Report, error) { return e.RunCtx(context.Background()) }

// RunCtx is Run under a cancellation context. Cancelling ctx (or hitting
// its deadline) degrades gracefully: the chase stops at the next
// cooperative checkpoint — between rounds, between work units, or inside
// an enumeration — and returns the certain fixes accumulated so far with
// Report.Partial=true and a nil error.
func (e *Engine) RunCtx(ctx context.Context) (*Report, error) {
	return e.RunRules(ctx, e.rules, e.opts.MaxRounds)
}

// RunRules chases with a subset of Σ for at most maxRounds rounds, on the
// engine's own fix set and with RunCtx's graceful degradation. Successive
// calls continue one run: fixes, the order log, resolved cells and the
// oracle memo carry over, and the report accumulates — so a caller can
// schedule the cleaning tasks itself (baselines' Rock_seq and Rock_noC).
func (e *Engine) RunRules(ctx context.Context, rules []*ree.Rule, maxRounds int) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	e.ctx = ctx
	e.phaseSpan = e.obs.StartSpan("chase", e.opts.Span)
	err := e.fixpoint(rules, nil, maxRounds)
	e.finish()
	return &e.report, err
}

// RunIncrementalCtx chases in response to updates ΔD (paper §3: "Rock
// corrects errors in batch and incremental modes"): the caller applies the
// inserts/updates to the database first and passes the changed TIDs per
// relation; only valuations touching a changed tuple are enumerated in the
// first round, and the normal lazy-activation machinery propagates from
// there. Call after Run (or on a fresh engine over already-clean data).
// Cancellation degrades gracefully, as in RunCtx.
func (e *Engine) RunIncrementalCtx(ctx context.Context, dirty map[string]map[int]bool) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	e.ctx = ctx
	if len(dirty) == 0 {
		e.finish()
		return &e.report, nil
	}
	e.phaseSpan = e.obs.StartSpan("chase.incremental", e.opts.Span)
	// Index the EIDs of tuples inserted since the index was built.
	e.indexEIDs()
	// The caller mutated raw data: rebuild the partition (inserts need a
	// block) and shadow the dirty tuples — an updated tuple may sit in an
	// entity class with validated cells, so its view can differ from its
	// new raw value. The env's columns keep themselves current: a pipeline
	// delta refreshed them, and a column stamped before a write it was not
	// told about is rebuilt on its next read.
	e.blocks = nil
	e.exec.MarkShadowed(dirty)
	err := e.fixpoint(e.rules, dirty, e.opts.MaxRounds)
	e.finish()
	return &e.report, err
}

// fixpoint is the main chase loop over the given rule subset, for at most
// maxRounds rounds. initialDirty restricts the first round to valuations
// touching the given tuples (the incremental mode); nil means batch
// (everything considered).
func (e *Engine) fixpoint(rules []*ree.Rule, initialDirty map[string]map[int]bool, maxRounds int) error {
	active := append([]*ree.Rule(nil), rules...)
	dirty := initialDirty // nil on batch round 0: everything dirty
	if e.pred != nil && len(e.report.PredicationByRound) == 0 {
		// Baseline snapshot before the first round: with a shared layer
		// the counters already include the detection phase, and deltas
		// between consecutive snapshots isolate each chase round.
		e.report.PredicationByRound = append(e.report.PredicationByRound, e.pred.Stats())
	}
	for round := 0; round < maxRounds; round++ {
		if len(active) == 0 {
			break
		}
		// Cooperative cancellation between rounds: keep the certain fixes
		// applied so far and return a partial report instead of discarding
		// the run. (Mid-round cancels are caught by the drain and latch
		// e.cancelled, handled after runRound below.)
		if e.ctx.Err() != nil {
			if !e.cancelled {
				e.cancelled = true
				e.obs.Inc("chase.cancelled")
			}
			e.report.Partial = true
			break
		}
		e.obs.Inc("chase.rounds")
		newFixes, err := e.runRound(active, dirty)
		if err != nil {
			return err
		}
		if e.cancelled {
			e.report.Partial = true
			break
		}
		if len(newFixes) == 0 {
			break
		}
		if e.opts.Lazy {
			active = e.activate(rules, newFixes)
			dirty = e.dirtySet(newFixes)
		} else {
			active = rules
			dirty = nil
		}
	}
	return nil
}

// runRound runs one chase round the way §5.3 describes error correction:
// the data is partitioned into virtual blocks (HyperCube), each active
// rule yields one work unit per block combination, units enumerate
// valuations against the start-of-round fix set and deduce candidate
// fixes, and the fixes are then applied in a deterministic merge step
// (conflict resolution included).
//
// A unit returns its outcome (runUnit) and the round keeps one slot per
// unit, so executors differ only in who calls runUnit: the in-process pool
// (cluster.DrainWithStats: affinity queues plus work stealing; one worker
// for the serial reference) or — behind a DistRunner — worker replicas in
// other processes. The merge folds the slots in unit-index order, which is
// the serial generation order (rule ID, unit part), so fixes and report
// state are bit-identical across executors regardless of worker
// interleaving. Correctness rests on the round invariant: units only read
// the fix set (truth.FixSet reads are compression-free), and all fixes
// apply in the serial merge below. Unit costs are measured for
// Report.RuleProfile.
func (e *Engine) runRound(rules []*ree.Rule, dirty map[string]map[int]bool) ([]Fix, error) {
	roundStart := time.Now()
	round := int(e.obs.CounterValue("chase.rounds")) // caller already counted this round
	roundSpan := e.obs.StartSpan("round", e.phaseSpan)
	roundSpan.SetRound(round)
	defer roundSpan.End()
	work := e.prepareRound(rules)

	// A slot is assigned whole, once per completed attempt: a unit that
	// panics mid-enumeration leaves nothing behind, so its retry cannot
	// double-report what the failed attempt had already found.
	slots := make([]unitSlot, len(work))
	drain := cluster.DrainStats{PerNode: make(map[string]int)}
	// A zero-unit round skips the drain: a coordinator's unit table is
	// reset only by BeginRound, so draining would re-run the last round's.
	if len(work) > 0 {
		if e.dist != nil {
			// Replicate this round's inputs to the worker processes (truth
			// journal + last round's accepted fixes + active rule IDs); the
			// units submitted below are then metadata only — a coordinator
			// never calls Run — and replicas run them by index.
			ids := make([]string, len(rules))
			for i, r := range rules {
				ids[i] = r.ID
			}
			sort.Strings(ids)
			pre := RoundPreamble{
				Round:    round,
				RuleIDs:  ids,
				Journal:  e.u.OpsSince(e.shipped),
				Accepted: e.lastAccepted,
				UseDirty: dirty != nil,
				Units:    len(work),
			}
			e.shipped = e.u.Mark()
			if err := e.dist.BeginRound(e.ctx, pre); err != nil {
				return nil, err
			}
		}
		for _, w := range work {
			e.cl.Submit(&crystal.WorkUnit{
				ID:      w.index,
				RuleID:  w.rule.ID,
				Part:    w.Part,
				EstCost: w.EstCost,
				Run: func(node string) {
					out, err := e.runUnit(e.ctx, w, dirty, node, roundSpan)
					slots[w.index] = unitSlot{out: out, err: err, done: true}
				},
			})
		}
		drain = e.cl.DrainWithStats(e.ctx, e.opts.Drain)
		if e.dist != nil {
			for _, out := range e.dist.TakeResults() {
				if out.Unit >= 0 && out.Unit < len(slots) {
					slots[out.Unit] = unitSlot{out: out, done: true}
				}
			}
		}
	}
	if drain.Cancelled {
		e.cancelled = true
	}
	if len(drain.Failed) > 0 {
		e.report.UnitErrors = append(e.report.UnitErrors, drain.Failed...)
		e.report.Partial = true
	}
	e.obs.Add("chase.units", uint64(len(work)))

	// Merge the slots back in generation order. Units a cancelled drain
	// never ran (or that failed permanently) are skipped: the fixes of
	// completed units are still certain and still apply.
	var candidates []Fix
	var roundVal, roundML int
	unitHist := e.obs.Histogram("chase.unit")
	for i, w := range work {
		if !slots[i].done {
			continue
		}
		out, cost := &slots[i].out, time.Duration(slots[i].out.CostNs)
		roundVal += out.Valuations
		roundML += out.MLCalls
		rc := e.ruleCost(w.rule.ID)
		rc.Units++
		rc.Wall += cost
		rc.Valuations += out.Valuations
		rc.MLCalls += out.MLCalls
		pref := "chase.rule." + w.rule.ID
		e.obs.Inc(pref + ".units")
		e.obs.Add(pref+".wall_ns", uint64(cost))
		e.obs.Add(pref+".valuations", uint64(out.Valuations))
		e.obs.Add(pref+".ml_calls", uint64(out.MLCalls))
		if err := slots[i].err; err != nil {
			// A context error means the unit was cut short mid-enumeration:
			// what it found so far is sound, keep it and latch cancellation.
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				e.cancelled = true
			} else {
				return nil, err
			}
		}
		candidates = append(candidates, out.Fixes...)
		e.report.Unresolved = append(e.report.Unresolved, out.Unresolved...)
		e.report.ResolvedMI += out.ResolvedMI
		unitHist.Observe(cost)
	}
	e.obs.Add("chase.valuations", uint64(roundVal))
	e.obs.Add("chase.ml_calls", uint64(roundML))
	// Merge step: apply the deduced fixes in deterministic order. Every
	// matching valuation deduces the same fix, so candidates are heavily
	// duplicated — dedupe first or the serial merge (with its conflict
	// resolution) dominates the round.
	seenFix := make(map[fixKey]bool, len(candidates))
	var accepted []Fix
	rejected := 0
	for _, fx := range candidates {
		key := keyOfFix(fx)
		if seenFix[key] {
			continue
		}
		seenFix[key] = true
		if e.apply(fx) {
			accepted = append(accepted, fx)
			e.ruleCost(fx.RuleID).Applied++
			e.obs.Inc("chase.rule." + fx.RuleID + ".applied")
		} else {
			rejected++
			e.ruleCost(fx.RuleID).Rejected++
			e.obs.Inc("chase.rule." + fx.RuleID + ".rejected")
		}
	}
	e.obs.Add("chase.fixes.applied", uint64(len(accepted)))
	e.obs.Add("chase.fixes.rejected", uint64(rejected))
	e.absorb(accepted)
	e.lastAccepted = accepted
	if e.pred != nil {
		e.report.Predication = e.pred.Stats()
		e.report.PredicationByRound = append(e.report.PredicationByRound, e.report.Predication)
		e.pred.PublishTo(e.obs)
	}
	e.obs.Add("chase.wall_ns", uint64(time.Since(roundStart)))
	e.report.Trace = append(e.report.Trace, RoundTrace{
		Round:      round,
		Rules:      len(rules),
		Units:      len(work),
		Valuations: roundVal,
		MLCalls:    roundML,
		Applied:    len(accepted),
		Rejected:   rejected,
		Steals:     drain.Steals,
		NodeUnits:  drain.PerNode,
		Duration:   time.Since(roundStart),
	})
	roundSpan.SetN(int64(len(accepted)))
	e.syncReport()
	return accepted, nil
}

// unitWork is one work unit T = (φ, D_T) of a round: a rule paired with a
// block combination from the shared planner.
type unitWork struct {
	index int // position in the round's work list: the generation order
	rule  *ree.Rule
	crystal.BlockUnit
}

// unitSlot is where a round keeps unit i's outcome, whoever ran it. err is
// the enumeration error of a locally run unit; a context error leaves the
// outcome's partial content valid.
type unitSlot struct {
	out  UnitOutcome
	err  error
	done bool
}

// prepareRound readies the engine — coordinator, in-process or replica
// alike — for a round over the given active rules and returns the round's
// work list: rules in ID order, each rule's block combinations in index
// order. The list is a deterministic function of (rules, data, Workers),
// so replicas derive the identical one and unit index i names the same
// work on every process.
func (e *Engine) prepareRound(rules []*ree.Rule) []unitWork {
	// Deterministic rule order for reproducibility; Church-Rosser makes
	// the final result order-independent anyway.
	ordered := append([]*ree.Rule(nil), rules...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].ID < ordered[j].ID })

	if e.blocks == nil {
		e.blocks = crystal.Partition(e.env.DB, e.opts.Workers)
		// Hand the executor the stable partition slices so its vectorized
		// paths reuse precomputed ascending TID arrays instead of
		// re-extracting them per work unit.
		e.exec.InvalidatePartitions()
		for _, rel := range e.env.DB.Relations {
			e.exec.RegisterPartition(rel.Tuples)
		}
		for _, bs := range e.blocks {
			for _, b := range bs {
				e.exec.RegisterPartition(b)
			}
		}
	}
	var work []unitWork
	for _, r := range ordered {
		for _, u := range crystal.UnitsFor(exec.PlanAtoms(r), e.blocks) {
			work = append(work, unitWork{index: len(work), rule: r, BlockUnit: u})
		}
	}
	return work
}

// runUnit is the one body of a work unit: enumerate the rule's valuations
// over the unit's blocks against the start-of-round fix set and deduce
// candidate fixes — with the report state deduction produces — into an
// outcome of the unit's own. node is the worker actually running it
// (a stolen unit reports the thief). On an enumeration error the outcome
// holds what was deduced before it.
func (e *Engine) runUnit(ctx context.Context, w unitWork, dirty map[string]map[int]bool, node string, parent *obs.Span) (out UnitOutcome, err error) {
	out.Unit, out.Node = w.index, node
	span := e.obs.StartSpan("unit", parent)
	span.SetRule(w.rule.ID)
	span.SetNode(node)
	span.SetDetail(w.Part)
	defer func() {
		span.SetN(int64(out.Valuations))
		span.End()
	}()
	start := time.Now()
	opts := exec.Options{Ctx: ctx, UseBlocking: e.opts.UseBlocking, Dirty: dirty, RestrictVar: w.Restrict, Span: span}
	st, err := e.exec.Run(w.rule, opts, func(h *predicate.Valuation) bool {
		e.deduce(&out, w.rule, h)
		return true
	})
	out.Valuations, out.MLCalls = st.Valuations, st.MLCalls
	out.CostNs = int64(time.Since(start))
	return out, err
}

// absorb is the bookkeeping that follows a merge, on the engine that
// merged and on every replica following it: accepted fixes change the
// values units read through env.ValueOf, so the affected tuples (same
// granularity that re-activates rules) are no longer safe for interned
// raw-id comparisons: shadow them so the executor reads those tuples
// through the fix set.
func (e *Engine) absorb(accepted []Fix) {
	if len(accepted) == 0 {
		return
	}
	e.exec.MarkShadowed(e.dirtySet(accepted))
}

// fixKey is a fix canonicalised for in-round deduplication: the rule id
// is excluded (the same fix deduced by two rules applies once) and the
// value enters by its canonical key, which agrees with Value.Equal.
type fixKey struct {
	kind                  FixKind
	rel, attr, eid1, eid2 string
	tid, tid1, tid2       int
	value                 string
	strict                bool
}

func keyOfFix(fx Fix) fixKey {
	return fixKey{fx.Kind, fx.Rel, fx.Attr, fx.EID1, fx.EID2, fx.TID, fx.TID1, fx.TID2, fx.Value.Key(), fx.Strict}
}

// deduce turns the consequence p0 under valuation h into zero or more
// concrete fixes (paper §4.1, chase-step condition (2)), appended to the
// unit's outcome together with whatever report state the deduction
// produced — a unit writes nothing but its own outcome.
func (e *Engine) deduce(out *UnitOutcome, r *ree.Rule, h *predicate.Valuation) {
	p := r.P0
	switch p.Kind {
	case predicate.KEID:
		bt, bs := h.Tuples[p.T], h.Tuples[p.S]
		if bt.Tuple == nil || bs.Tuple == nil {
			return
		}
		kind := FixMerge
		if p.Op == predicate.Neq {
			kind = FixSeparate
		}
		out.Fixes = append(out.Fixes, Fix{Kind: kind, EID1: bt.Tuple.EID, EID2: bs.Tuple.EID, RuleID: r.ID})

	case predicate.KConst:
		bt := h.Tuples[p.T]
		if bt.Tuple == nil || p.Op != predicate.Eq {
			return
		}
		out.Fixes = append(out.Fixes, Fix{Kind: FixCell, Rel: bt.Rel, Attr: p.A, EID1: bt.Tuple.EID, TID: bt.Tuple.TID, Value: p.C, RuleID: r.ID})

	case predicate.KAttr:
		if p.Op != predicate.Eq {
			return
		}
		bt, bs := h.Tuples[p.T], h.Tuples[p.S]
		if bt.Tuple == nil || bs.Tuple == nil {
			return
		}
		vt, okT := e.env.ValueOf(bt.Rel, bt.Tuple, p.A)
		vs, okS := e.env.ValueOf(bs.Rel, bs.Tuple, p.B)
		nullT := !okT || vt.IsNull()
		nullS := !okS || vs.IsNull()
		// Equating two declared entity references identifies the referenced
		// entities (ϕ1: same discount code → same buyer pid).
		if e.opts.EIDRefs[bt.Rel+"."+p.A] && e.opts.EIDRefs[bs.Rel+"."+p.B] {
			if nullT || nullS || vt.Equal(vs) {
				return
			}
			out.Fixes = append(out.Fixes, Fix{Kind: FixMerge, EID1: vt.String(), EID2: vs.String(), RuleID: r.ID})
			return
		}
		mk := func(b predicate.Binding, attr string, v data.Value) Fix {
			return Fix{Kind: FixCell, Rel: b.Rel, Attr: attr, EID1: b.Tuple.EID, TID: b.Tuple.TID, Value: v, RuleID: r.ID}
		}
		switch {
		case nullT && nullS:
			return
		case nullT:
			out.Fixes = append(out.Fixes, mk(bt, p.A, vs))
		case nullS:
			out.Fixes = append(out.Fixes, mk(bs, p.B, vt))
		case vt.Equal(vs):
			return
		default:
			// Both sides carry distinct values: the rule asserts they must
			// be equal, but the data cannot certify which one is correct.
			// Decide once per pair (validated side → correlation model →
			// value rarity → user), then assert the winner on both sides —
			// never contaminate the clean side with an arbitrary choice
			// (paper §4.1: fixes must be justified, not guessed).
			winner, ok := e.resolveValuePair(out, bt, p.A, vt, bs, p.B, vs)
			if !ok {
				return
			}
			if !vt.Equal(winner) {
				out.Fixes = append(out.Fixes, mk(bt, p.A, winner))
			}
			if !vs.Equal(winner) {
				out.Fixes = append(out.Fixes, mk(bs, p.B, winner))
			}
		}

	case predicate.KTemporal:
		bt, bs := h.Tuples[p.T], h.Tuples[p.S]
		if bt.Tuple == nil || bs.Tuple == nil {
			return
		}
		out.Fixes = append(out.Fixes, Fix{Kind: FixOrder, Rel: bt.Rel, Attr: p.A, TID1: bt.Tuple.TID, TID2: bs.Tuple.TID, Strict: p.Strict,
			EID1: bt.Tuple.EID, EID2: bs.Tuple.EID, RuleID: r.ID})

	case predicate.KVal:
		bt := h.Tuples[p.T]
		bx, okx := h.Vertices[p.X]
		if bt.Tuple == nil || !okx {
			return
		}
		g := e.env.Graphs[bx.Graph]
		if g == nil {
			return
		}
		val, ok := g.Val(bx.ID, p.Path)
		if !ok {
			return
		}
		v := coerce(e.env.DB, bt.Rel, p.A, val)
		out.Fixes = append(out.Fixes, Fix{Kind: FixCell, Rel: bt.Rel, Attr: p.A, EID1: bt.Tuple.EID, TID: bt.Tuple.TID, Value: v, RuleID: r.ID})

	case predicate.KPredict:
		bt := h.Tuples[p.T]
		if bt.Tuple == nil {
			return
		}
		md := e.env.Pred[p.Model]
		if md == nil {
			return
		}
		rel := e.env.DB.Rel(bt.Rel)
		if rel == nil {
			return
		}
		bIdx := rel.Schema.Index(p.B)
		if bIdx < 0 {
			return
		}
		// Suggest over the tuple as seen through validated values.
		seen := e.viewTuple(bt.Rel, bt.Tuple)
		v, _, ok := md.Suggest(seen, bIdx)
		if !ok {
			return
		}
		out.Fixes = append(out.Fixes, Fix{Kind: FixCell, Rel: bt.Rel, Attr: p.B, EID1: bt.Tuple.EID, TID: bt.Tuple.TID, Value: v, RuleID: r.ID})
	}
}

// viewTuple materialises the tuple as seen through validated cells.
func (e *Engine) viewTuple(rel string, t *data.Tuple) *data.Tuple {
	r := e.env.DB.Rel(rel)
	if r == nil {
		return t
	}
	vt := t.Clone()
	for i, a := range r.Schema.Attrs {
		if v, ok := e.u.Cell(rel, t.EID, a.Name); ok {
			vt.Values[i] = v
		}
	}
	return vt
}

func coerce(db *data.Database, rel, attr, raw string) data.Value {
	r := db.Rel(rel)
	if r == nil {
		return data.S(raw)
	}
	want, ok := r.Schema.TypeOf(attr)
	if !ok {
		return data.S(raw)
	}
	if v, err := data.Parse(want, raw); err == nil {
		return v
	}
	return data.S(raw)
}

// apply commits one fix into U, resolving conflicts per paper §4.2. It
// reports whether U changed.
func (e *Engine) apply(fx Fix) bool {
	switch fx.Kind {
	case FixMerge:
		changed, conflict := e.u.MergeEIDs(fx.EID1, fx.EID2)
		if conflict != nil {
			e.report.Unresolved = append(e.report.Unresolved, UnresolvedConflict{conflict, fx})
			return false
		}
		if changed {
			e.report.Applied = append(e.report.Applied, fx)
		}
		return changed

	case FixSeparate:
		changed, conflict := e.u.SeparateEIDs(fx.EID1, fx.EID2)
		if conflict != nil {
			e.report.Unresolved = append(e.report.Unresolved, UnresolvedConflict{conflict, fx})
			return false
		}
		if changed {
			e.report.Applied = append(e.report.Applied, fx)
		}
		return changed

	case FixCell:
		changed, conflict := e.u.SetCell(fx.Rel, fx.EID1, fx.Attr, fx.Value)
		if conflict != nil {
			return e.resolveCellConflict(fx, conflict)
		}
		if changed {
			e.report.Applied = append(e.report.Applied, fx)
		}
		return changed

	case FixOrder:
		changed, conflict := e.u.AddOrder(fx.Rel, fx.Attr, fx.TID1, fx.TID2, fx.Strict)
		if conflict != nil {
			return e.resolveOrderConflict(fx)
		}
		if changed {
			e.orderLog[fx.Rel+"."+fx.Attr] = append(e.orderLog[fx.Rel+"."+fx.Attr], fx)
			e.report.Applied = append(e.report.Applied, fx)
		}
		return changed
	}
	return false
}

// resolveCellConflict implements the value-conflict resolutions of paper
// §4.2: the MI case keeps the candidate with the higher M_c correlation
// strength (argmax over Cand, case (3)); when no correlation model decides
// — no model trained, or the candidates tie — the conflict is an ER/CR
// case and goes to the user oracle (case (1)); with neither, it stays
// unresolved and is reported.
func (e *Engine) resolveCellConflict(fx Fix, conflict *truth.Conflict) bool {
	cellMemoKey := fx.Rel + "\x1f" + e.u.ClassMembers(fx.EID1)[0] + "\x1f" + fx.Attr
	toUser := func() bool {
		answer, ok := e.askOracle(fx.Rel, fx.EID1, fx.Attr, []data.Value{conflict.Old, fx.Value})
		if !ok {
			e.report.Unresolved = append(e.report.Unresolved, UnresolvedConflict{conflict, fx})
			return false
		}
		e.resolvedCells[cellMemoKey] = true
		if answer.Equal(conflict.Old) {
			return false // existing fix confirmed
		}
		e.u.ReplaceCell(fx.Rel, fx.EID1, fx.Attr, answer)
		applied := fx
		applied.Value = answer
		e.report.Applied = append(e.report.Applied, applied)
		return true
	}
	// A previously resolved cell is settled: only the (memoised) user can
	// overturn it; model margins drift with the evolving view and would
	// re-litigate the decision forever.
	if e.resolvedCells[cellMemoKey] {
		return toUser()
	}
	mc := e.corrFor(fx.Rel)
	rel := e.env.DB.Rel(fx.Rel)
	if mc == nil || rel == nil {
		return toUser()
	}
	bIdx := rel.Schema.Index(fx.Attr)
	if bIdx < 0 {
		return toUser()
	}
	// Score both candidates against any tuple of the entity class.
	var probe *data.Tuple
	for _, eid := range e.u.ClassMembers(fx.EID1) {
		for _, t := range e.tuplesByEID[fx.Rel][eid] {
			probe = t
			break
		}
		if probe != nil {
			break
		}
	}
	if probe == nil {
		return toUser()
	}
	view := e.viewTuple(fx.Rel, probe)
	oldScore := mc.Strength(view, nil, bIdx, conflict.Old)
	newScore := mc.Strength(view, nil, bIdx, fx.Value)
	const margin = 0.05 // below this the model cannot distinguish the candidates
	if newScore-oldScore > margin {
		e.report.ResolvedMI++
		e.resolvedCells[cellMemoKey] = true
		e.u.ReplaceCell(fx.Rel, fx.EID1, fx.Attr, fx.Value)
		e.report.Applied = append(e.report.Applied, fx)
		return true
	}
	if oldScore-newScore > margin {
		e.report.ResolvedMI++
		e.resolvedCells[cellMemoKey] = true
		return false
	}
	return toUser()
}

// resolveOrderConflict implements the TD resolution: extend M_rank to
// confidence scores for both directions and retain the higher one
// (paper §4.2 case (2)). If the new direction wins, the losing direct
// edges are retracted by rebuilding the attribute's order from the
// surviving log.
func (e *Engine) resolveOrderConflict(fx Fix) bool {
	if e.env.Ranker == nil {
		e.report.Unresolved = append(e.report.Unresolved,
			UnresolvedConflict{&truth.Conflict{Kind: truth.OrderConflict, Rel: fx.Rel, Attr: fx.Attr}, fx})
		return false
	}
	rel := e.env.DB.Rel(fx.Rel)
	if rel == nil {
		return false
	}
	t1, t2 := rel.Get(fx.TID1), rel.Get(fx.TID2)
	if t1 == nil || t2 == nil {
		return false
	}
	fwd := e.env.Ranker.RankLeq(fx.Rel, t1, t2, fx.Attr)
	rev := e.env.Ranker.RankLeq(fx.Rel, t2, t1, fx.Attr)
	e.report.ResolvedTD++
	if fwd <= rev {
		// Existing direction wins; drop the new fix.
		return false
	}
	// New direction wins: retract the direct reverse edges and rebuild.
	key := fx.Rel + "." + fx.Attr
	var kept []Fix
	for _, old := range e.orderLog[key] {
		if old.TID1 == fx.TID2 && old.TID2 == fx.TID1 {
			e.report.RetractedTD++
			continue
		}
		kept = append(kept, old)
	}
	rebuilt := data.NewTemporalOrder(fx.Rel, fx.Attr)
	valid := true
	for _, old := range kept {
		if old.Strict {
			rebuilt.AddStrict(old.TID1, old.TID2)
		} else {
			rebuilt.AddWeak(old.TID1, old.TID2)
		}
	}
	if fx.Strict {
		if rebuilt.Leq(fx.TID2, fx.TID1) {
			valid = false
		} else {
			rebuilt.AddStrict(fx.TID1, fx.TID2)
		}
	} else {
		if rebuilt.Less(fx.TID2, fx.TID1) {
			valid = false
		} else {
			rebuilt.AddWeak(fx.TID1, fx.TID2)
		}
	}
	if !valid {
		// The conflict is entailed transitively by other fixes; keep the
		// existing order.
		return false
	}
	e.u.ReplaceOrder(fx.Rel, fx.Attr, rebuilt)
	e.orderLog[key] = append(kept, fx)
	e.report.Applied = append(e.report.Applied, fx)
	return true
}

// askOracle consults the user once per (rel, entity-class, attr): repeat
// questions about the same cell replay the memoised answer without
// counting as new manual effort. The whole memo-check/ask/memo-store is
// one critical section so concurrent deductions over the same cell still
// cost exactly one consultation, as in the serial engine. The question is
// posed for each class member in the class's (deterministic) order until
// one is answered: the user recognises the cell by whichever entity label
// they know, and the memoised answer must not depend on which member's
// deduction happened to reach the user first — that order races under the
// parallel chase.
func (e *Engine) askOracle(rel, eid, attr string, candidates []data.Value) (data.Value, bool) {
	if e.opts.Oracle == nil {
		return data.Value{}, false
	}
	members := e.u.ClassMembers(eid)
	// The key covers the candidate set too (order-canonicalised): the
	// user's answer may depend on which values they are shown, so a memo
	// hit must replay the answer to the same question only — otherwise the
	// first-asked candidate set would leak into every later question about
	// the cell, and which question asks first races under parallelism.
	sig := make([]string, len(candidates))
	for i, c := range candidates {
		sig[i] = c.Key()
	}
	sort.Strings(sig)
	key := rel + "\x1f" + members[0] + "\x1f" + attr + "\x1f" + strings.Join(sig, "\x1e")
	e.mu.Lock()
	defer e.mu.Unlock()
	if v, ok := e.oracleMemo[key]; ok {
		return v, true
	}
	e.report.OracleCalls++
	for _, m := range members {
		if answer, ok := e.opts.Oracle(rel, m, attr, candidates); ok {
			e.oracleMemo[key] = answer
			return answer, true
		}
	}
	return data.Value{}, false
}

// resolveValuePair decides which of two conflicting values is correct when
// a rule asserts t.A = s.B but both sides disagree. The decision cascade:
//
//  1. a side already validated in U (which includes Γ, the ground truth)
//     wins — the fix is then a logical consequence of rules + ground truth;
//  2. the correlation model M_c scores each candidate against both tuples'
//     validated context; a clear margin decides;
//  3. value rarity: the value that is drastically rarer in its column is
//     the error (typos and corrupted numbers are near-unique);
//  4. the user oracle (paper §4.2 case (1));
//  5. otherwise the pair stays unresolved and is reported.
//
// It runs during deduction, possibly on many workers at once, so what it
// has to report (steps 2 and 5) goes into the calling unit's outcome.
func (e *Engine) resolveValuePair(out *UnitOutcome, bt predicate.Binding, attrT string, vt data.Value,
	bs predicate.Binding, attrS string, vs data.Value) (data.Value, bool) {

	_, validT := e.u.Cell(bt.Rel, bt.Tuple.EID, attrT)
	_, validS := e.u.Cell(bs.Rel, bs.Tuple.EID, attrS)
	switch {
	case validT && !validS:
		return vt, true
	case validS && !validT:
		return vs, true
	}

	// Correlation model: sum each candidate's strength over both tuples.
	score := func(v data.Value) float64 {
		s := 0.0
		if mc := e.corrFor(bt.Rel); mc != nil {
			if rel := e.env.DB.Rel(bt.Rel); rel != nil {
				if ai := rel.Schema.Index(attrT); ai >= 0 {
					s += mc.Strength(e.viewTuple(bt.Rel, bt.Tuple), nil, ai, v)
				}
			}
		}
		if mc := e.corrFor(bs.Rel); mc != nil {
			if rel := e.env.DB.Rel(bs.Rel); rel != nil {
				if ai := rel.Schema.Index(attrS); ai >= 0 {
					s += mc.Strength(e.viewTuple(bs.Rel, bs.Tuple), nil, ai, v)
				}
			}
		}
		return s
	}
	st, ss := score(vt), score(vs)
	// A wide margin: M_c only decides when the correlation evidence is
	// unambiguous (deterministic associations like amount+fee→total or a
	// clear witness majority); weakly separated candidates go to the user.
	// No frequency guessing here — a fix must be justified by ground
	// truth, correlation evidence, or the user, or it is not applied
	// (certain-fix discipline, paper §4.1).
	const margin = 0.25
	if st-ss > margin {
		out.ResolvedMI++
		return vt, true
	}
	if ss-st > margin {
		out.ResolvedMI++
		return vs, true
	}

	if answer, ok := e.askOracle(bt.Rel, bt.Tuple.EID, attrT, []data.Value{vt, vs}); ok {
		return answer, true
	}
	if answer, ok := e.askOracle(bs.Rel, bs.Tuple.EID, attrS, []data.Value{vt, vs}); ok {
		return answer, true
	}
	out.Unresolved = append(out.Unresolved, UnresolvedConflict{
		Conflict: &truth.Conflict{Kind: truth.ValueConflict, Rel: bt.Rel, Attr: attrT, EID: bt.Tuple.EID, Old: vt, New: vs},
	})
	return data.Value{}, false
}

// corrFor finds a correlation model trained for the relation's schema.
func (e *Engine) corrFor(rel string) *ml.CorrelationModel {
	r := e.env.DB.Rel(rel)
	if r == nil {
		return nil
	}
	for _, m := range e.env.Corr {
		if m.Schema == r.Schema {
			return m
		}
	}
	return nil
}

// activate returns the rules whose precondition may newly fire given the
// fix kinds just produced (paper §4.1: "an REE++ is activated if at least
// one predicate in X is validated by the updated data").
func (e *Engine) activate(all []*ree.Rule, fixes []Fix) []*ree.Rule {
	cellTouched := map[string]bool{}  // rel.attr
	orderTouched := map[string]bool{} // rel.attr
	merged := false
	for _, fx := range fixes {
		switch fx.Kind {
		case FixCell:
			cellTouched[fx.Rel+"."+fx.Attr] = true
		case FixOrder:
			orderTouched[fx.Rel+"."+fx.Attr] = true
		case FixMerge, FixSeparate:
			merged = true
		}
	}
	var out []*ree.Rule
	for _, r := range all {
		if e.ruleFeeds(r, cellTouched, orderTouched, merged) {
			out = append(out, r)
		}
	}
	return out
}

func (e *Engine) ruleFeeds(r *ree.Rule, cells, orders map[string]bool, merged bool) bool {
	touchAttr := func(varName, attr string) bool {
		rel := r.RelOf(varName)
		return rel != "" && cells[rel+"."+attr]
	}
	for _, p := range r.X {
		switch p.Kind {
		case predicate.KEID:
			if merged {
				return true
			}
		case predicate.KTemporal:
			rel := r.RelOf(p.T)
			if rel != "" && orders[rel+"."+p.A] {
				return true
			}
		case predicate.KConst, predicate.KNull, predicate.KNotNull, predicate.KMatch, predicate.KVal:
			if touchAttr(p.T, p.A) {
				return true
			}
		case predicate.KAttr:
			if touchAttr(p.T, p.A) || touchAttr(p.S, p.B) {
				return true
			}
		case predicate.KML:
			for _, a := range p.As {
				if touchAttr(p.T, a) {
					return true
				}
			}
			for _, b := range p.Bs {
				if touchAttr(p.S, b) {
					return true
				}
			}
		case predicate.KCorr, predicate.KPredict:
			// Correlation strength depends on the whole tuple.
			if merged {
				return true
			}
			rel := r.RelOf(p.T)
			for key := range cells {
				if len(key) > len(rel) && key[:len(rel)] == rel {
					return true
				}
			}
		case predicate.KHER, predicate.KRank:
			if merged {
				return true
			}
		}
	}
	// Merges also change cell visibility everywhere; be conservative when
	// the rule reads attribute values at all.
	if merged && len(r.X) > 0 {
		return true
	}
	return false
}

// dirtySet computes which tuples the fixes affect: every tuple of every
// entity class involved.
func (e *Engine) dirtySet(fixes []Fix) map[string]map[int]bool {
	out := make(map[string]map[int]bool)
	mark := func(rel, eid string) {
		for _, member := range e.u.ClassMembers(eid) {
			for relName, idx := range e.tuplesByEID {
				if rel != "" && relName != rel {
					continue
				}
				for _, t := range idx[member] {
					m := out[relName]
					if m == nil {
						m = make(map[int]bool)
						out[relName] = m
					}
					m[t.TID] = true
				}
			}
		}
	}
	for _, fx := range fixes {
		switch fx.Kind {
		case FixMerge, FixSeparate:
			mark("", fx.EID1)
			mark("", fx.EID2)
		case FixCell:
			mark(fx.Rel, fx.EID1)
		case FixOrder:
			mark(fx.Rel, fx.EID1)
			mark(fx.Rel, fx.EID2)
		}
	}
	return out
}
