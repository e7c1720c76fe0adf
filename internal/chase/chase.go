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
	// Drain is handed unchanged to every round's drain: the retry policy
	// for panicking units (the drain's one retry policy; failures land on
	// Report.UnitErrors) and, in tests, fault injection.
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
	// to the worker replicas and drains metadata-only units, and each
	// deduced buffer lands in its unit's slot through the sink BeginRound
	// was handed — the merge/apply step stays local and serial, so the
	// result is bit-identical to the in-process run. Distributed runs
	// require replicas built from the same deterministic pipeline (same
	// data, rules, models, Workers) and a nil (or replica-identical
	// deterministic) Oracle.
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
		Drain: cluster.Options{MaxRetries: 2, RetryBackoff: time.Millisecond},
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
	// the round's work-unit, valuation, fix and timing detail
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
	Steals     int            `json:"steals"`   // always 0: the pool no longer steals; kept only because bench/batch.go reads it
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
	view  *view // env.View: U's validated cells first, raw data otherwise

	// gamma is Γ as given to New (never mutated), and orderLog records
	// accepted order fixes per rel.attr: a losing fix is retracted by
	// rebuilding the order from Γ's and the log's edges.
	gamma    *truth.FixSet
	orderLog map[string][]Fix
	// cl is the run-wide worker pool (in-process by default, the remote
	// coordinator when Options.Cluster supplies one); dist is cl when it
	// runs rounds distributed, nil otherwise.
	cl   cluster.Runner
	dist DistRunner
	// lastAccepted carries the previous round's accepted fixes into the
	// next distributed round's preamble (workers derive their dirty set
	// and extend their view from it, mirroring the post-merge step);
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

	// corr is the correlation model of each relation (absent: none),
	// resolved once in New: of the models trained for the relation's
	// schema, the first by name.
	corr map[string]*ml.CorrelationModel

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
	if opts.Workers < 1 {
		opts.Workers = 1
	}
	// The engine owns a shallow copy of the environment: the View and the
	// Orders hook wired below read this engine's fix set and must not
	// outlive it on the caller's env (detection reads raw values). Models,
	// graphs, the database and the column cache stay shared; the cache
	// also keeps the EID index and the TID % b blocks (TuplesOfEID,
	// Blocks), so an engine over an env that has them builds neither. An
	// env without a cache gets one of the engine's own.
	own := *env
	if own.Columns == nil {
		own.Columns = crystal.NewCache()
	}
	e := &Engine{
		env:           &own,
		rules:         rules,
		u:             gamma.Clone(),
		gamma:         gamma,
		opts:          opts,
		orderLog:      make(map[string][]Fix),
		oracleMemo:    make(map[string]data.Value),
		resolvedCells: make(map[string]bool),
		ruleCosts:     make(map[string]*RuleCost),
		ctx:           context.Background(),
	}
	e.obs = opts.Obs
	if e.obs == nil {
		e.obs = obs.New()
	}
	// One worker pool for the whole run, drained by every round. The
	// serial reference is a pool of one; a caller-supplied Runner (the
	// remote coordinator) takes the pool's place.
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
	// Wire the chase semantics into the environment: values read through
	// the fix set (validated first, raw otherwise) and temporal predicates
	// read the validated orders.
	e.view = newView(e.u, e.env.DB, e.tuplesOfEID)
	e.env.View = e.view
	e.corr = corrByRelation(env)
	e.env.Orders = func(rel, attr string) *data.TemporalOrder {
		return e.u.OrderIfAny(rel, attr)
	}
	e.exec = exec.New(e.env)
	e.exec.SetObs(e.obs)
	if opts.Predication {
		if opts.Pred != nil {
			e.pred = opts.Pred
		} else {
			e.pred = ml.NewPredication()
		}
		// The wrapped models are pure memoisers, so engines sharing the
		// env (with the layer on or off) see identical predictions.
		e.pred.WrapAll(env.Models)
		e.exec.SetEmbedStore(e.pred.Embeds)
	}
	return e
}

// tuplesOfEID returns the tuples of relation rel carrying eid, in TID
// order, from the env's EID index: built on its first lookup, extended by
// a delta's inserts, never rebuilt per engine.
func (e *Engine) tuplesOfEID(rel, eid string) []*data.Tuple {
	r := e.env.DB.Rel(rel)
	if r == nil {
		return nil
	}
	return e.env.Columns.TuplesOfEID(r, eid)
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

// maxRounds bounds Run's and an incremental run's fixpoint loop, a
// safety valve: a chase reaches its fixpoint in far fewer rounds.
const maxRounds = 100

// Run executes the chase to its Church-Rosser fixpoint and returns the
// report. The result is independent of rule order (verified by tests).
func (e *Engine) Run() (*Report, error) { return e.RunCtx(context.Background()) }

// RunCtx is Run under a cancellation context. Cancelling ctx (or hitting
// its deadline) degrades gracefully: the chase stops at the next
// cooperative checkpoint — between rounds, between work units, or inside
// an enumeration — and returns the certain fixes accumulated so far with
// Report.Partial=true and a nil error.
func (e *Engine) RunCtx(ctx context.Context) (*Report, error) {
	return e.RunRules(ctx, e.rules, maxRounds)
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
	// The caller mutated raw data: the view shadows the dirty tuples — an
	// updated tuple may sit in an entity class with validated cells, so its
	// view can differ from its new raw value. The env's cache keeps itself
	// current: a pipeline delta refreshed the columns, a column stamped
	// before a write it was not told about is rebuilt on its next read,
	// and the EID index and the blocks extend by the inserts on theirs.
	e.view.extend(dirty)
	err := e.fixpoint(e.rules, dirty, maxRounds)
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
		newFixes, newDirty, err := e.runRound(active, dirty)
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
			dirty = newDirty
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
// unit, so executors differ only in who calls runUnit: a goroutine of the
// in-process pool (one worker for the serial reference) or — behind a
// DistRunner — a worker replica in another process. Both drain one
// pending list, costliest unit first (cluster.DrainOn), and on both the
// outcome reaches its slot through one function (fill). The merge folds
// the slots in unit-index order, which is
// the serial generation order (rule ID, unit part), so fixes and report
// state are bit-identical across executors regardless of worker
// interleaving. Correctness rests on the round invariant: units only read
// the fix set (truth.FixSet reads are compression-free), and all fixes
// apply in the serial merge below. Unit costs are measured for
// Report.RuleProfile. It returns the accepted fixes and the tuples they
// affect (absorb).
func (e *Engine) runRound(rules []*ree.Rule, dirty map[string]map[int]bool) ([]Fix, map[string]map[int]bool, error) {
	roundStart := time.Now()
	round := int(e.obs.CounterValue("chase.rounds")) // caller already counted this round
	roundSpan := e.obs.StartSpan("round", e.phaseSpan)
	roundSpan.SetRound(round)
	defer roundSpan.End()
	// The round's four steps are child spans, one after the other:
	// round.prepare, round.drain (the unit spans nest under it),
	// round.merge and round.absorb.
	prepSpan := e.obs.StartSpan("round.prepare", roundSpan)
	work := e.prepareRound(rules)
	// A slot is assigned whole, once per completed attempt: a unit that
	// panics mid-enumeration leaves nothing behind, so its retry cannot
	// double-report what the failed attempt had already found. Each
	// drain goroutine fills the slot of the unit it ran, and the drain
	// returns after all of them, before the merge reads the slots. A
	// remote outcome's index comes off the wire, hence the range check.
	slots := make([]unitSlot, len(work))
	fill := func(out UnitOutcome, err error) {
		if out.Unit >= 0 && out.Unit < len(slots) {
			slots[out.Unit] = unitSlot{out: out, err: err, done: true}
		}
	}
	// A zero-unit round skips the preamble and the drain.
	if len(work) > 0 && e.dist != nil {
		// Replicate this round's inputs to the worker processes (truth
		// journal + last round's accepted fixes + active rule IDs); the
		// units drained below are then metadata only — a coordinator
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
		if err := e.dist.BeginRound(e.ctx, pre, fill); err != nil {
			return nil, nil, err
		}
	}
	prepSpan.End()

	drainSpan := e.obs.StartSpan("round.drain", roundSpan)
	drain := cluster.DrainStats{PerNode: make(map[string]int)}
	if len(work) > 0 {
		units := make([]*crystal.WorkUnit, len(work))
		for i, w := range work {
			units[i] = &crystal.WorkUnit{
				ID:      w.index,
				RuleID:  w.rule.ID,
				Part:    w.Part,
				EstCost: w.EstCost,
				Run:     func(node string) { fill(e.runUnit(e.ctx, w, dirty, node, drainSpan)) },
			}
		}
		drain = e.cl.DrainWithStats(e.ctx, units, e.opts.Drain)
	}
	if drain.Cancelled {
		e.cancelled = true
	}
	if len(drain.Failed) > 0 {
		e.report.UnitErrors = append(e.report.UnitErrors, drain.Failed...)
		e.report.Partial = true
	}
	e.obs.Add("chase.units", uint64(len(work)))
	drainSpan.End()

	// Merge the slots back in generation order. Units a cancelled drain
	// never ran (or that failed permanently) are skipped: the fixes of
	// completed units are still certain and still apply.
	mergeSpan := e.obs.StartSpan("round.merge", roundSpan)
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
				return nil, nil, err
			}
		}
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
	seenFix := make(map[fixKey]bool)
	var accepted []Fix
	rejected := 0
	for i := range work {
		if !slots[i].done {
			continue
		}
		for _, fx := range slots[i].out.Fixes {
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
	}
	e.obs.Add("chase.fixes.applied", uint64(len(accepted)))
	e.obs.Add("chase.fixes.rejected", uint64(rejected))
	mergeSpan.End()

	absorbSpan := e.obs.StartSpan("round.absorb", roundSpan)
	affected := e.absorb(accepted)
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
		NodeUnits:  drain.PerNode,
		Duration:   time.Since(roundStart),
	})
	roundSpan.SetN(int64(len(accepted)))
	e.syncReport()
	absorbSpan.End()
	return accepted, affected, nil
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

	// The blocks and their TID arrays live in the env's cache: kept across
	// rounds and deltas, extended by inserts.
	blocks := e.env.Columns.Partition(e.env.DB, e.opts.Workers)
	var work []unitWork
	for _, r := range ordered {
		for _, u := range crystal.UnitsFor(exec.PlanAtoms(r), blocks) {
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
	p0 := w.rule.P0
	eidRef := p0.Kind == predicate.KAttr && e.opts.EIDRefs[w.rule.RelOf(p0.T)+"."+p0.A] && e.opts.EIDRefs[w.rule.RelOf(p0.S)+"."+p0.B]
	d := &deduction{out: &out, ruleID: w.rule.ID, eidRef: eidRef, seen: make(map[fixKey]bool)}
	st, err := e.exec.Run(w.rule, opts, func(h *predicate.Valuation) bool {
		e.deduce(d, h)
		return true
	})
	out.Valuations, out.MLCalls = st.Valuations, st.MLCalls
	out.CostNs = int64(time.Since(start))
	return out, err
}

// absorb is the bookkeeping that follows a merge, on the engine that
// merged and on every replica following it: accepted fixes change what
// the view reads, so the view shadows the tuples they affect — the
// dirty set, at the granularity that re-activates rules. It returns that
// set, which is also the next lazy round's filter.
func (e *Engine) absorb(accepted []Fix) map[string]map[int]bool {
	if len(accepted) == 0 {
		return nil
	}
	dirty := e.dirtySet(accepted)
	e.view.extend(dirty)
	return dirty
}

// fixKey is a fix canonicalised for in-round deduplication: the rule id
// is excluded (the same fix deduced by two rules applies once) and the
// value enters by its canonical form, which agrees with its Key.
type fixKey struct {
	kind                  FixKind
	rel, attr, eid1, eid2 string
	tid, tid1, tid2       int
	value                 data.Canon
	strict                bool
}

func keyOfFix(fx Fix) fixKey {
	return fixKey{fx.Kind, fx.Rel, fx.Attr, fx.EID1, fx.EID2, fx.TID, fx.TID1, fx.TID2, fx.Value.Canon(), fx.Strict}
}

// deduction is one unit's deduction state: its outcome, its rule's id and
// eidRef (the consequence equates two Options.EIDRefs), the fixes deduced
// so far and the anchors resolveValuePair resolved. A unit keeps each fix
// once, in first-deduced order — the order the merge step would keep it
// in.
type deduction struct {
	out    *UnitOutcome
	ruleID string
	eidRef bool
	seen   map[fixKey]bool
	// anchors holds a tuple's correlation anchors for a column, seen
	// through the view. The view moves only between rounds, so a tuple
	// that conflicts with many partners in one unit is anchored once.
	anchors map[anchorKey]ml.Anchors
}

type anchorKey struct {
	t   *data.Tuple
	col int
}

// anchorsOf returns s's anchors under m, resolved on the unit's first ask.
func (e *Engine) anchorsOf(d *deduction, m *ml.CorrelationModel, s side) ml.Anchors {
	k := anchorKey{s.t, s.col}
	a, ok := d.anchors[k]
	if !ok {
		if d.anchors == nil {
			d.anchors = make(map[anchorKey]ml.Anchors)
		}
		a = m.Anchors(e.view.tuple(s.rel, s.t), s.col)
		d.anchors[k] = a
	}
	return a
}

// add appends fx to the outcome unless the unit already deduced it.
func (d *deduction) add(fx Fix) {
	k := keyOfFix(fx)
	if d.seen[k] {
		return
	}
	d.seen[k] = true
	d.out.Fixes = append(d.out.Fixes, fx)
}

// deduce turns the consequence p0 under valuation h into zero or more
// concrete fixes (paper §4.1, chase-step condition (2)), added to the
// unit's outcome together with whatever report state the deduction
// produced — a unit writes nothing but its own outcome.
func (e *Engine) deduce(d *deduction, h *predicate.Valuation) {
	ruleID := d.ruleID
	p := h.Frame.P0
	t, s := h.Tuple(p.TSlot), h.Tuple(p.SSlot)
	if t == nil {
		return
	}
	rt := h.Frame.Rels[p.TSlot]
	switch p.Kind {
	case predicate.KEID:
		if s == nil {
			return
		}
		kind := FixMerge
		if p.Op == predicate.Neq {
			kind = FixSeparate
		}
		d.add(Fix{Kind: kind, EID1: t.EID, EID2: s.EID, RuleID: ruleID})

	case predicate.KConst:
		if p.Op != predicate.Eq {
			return
		}
		d.add(Fix{Kind: FixCell, Rel: rt.Schema.Name, Attr: p.A, EID1: t.EID, TID: t.TID, Value: p.C, RuleID: ruleID})

	case predicate.KAttr:
		if p.Op != predicate.Eq || s == nil {
			return
		}
		rs := h.Frame.Rels[p.SSlot]
		vt, vs := e.env.Value(rt, t, p.ACol), e.env.Value(rs, s, p.BCol)
		nullT, nullS := vt.IsNull(), vs.IsNull()
		// Equating two declared entity references identifies the referenced
		// entities (ϕ1: same discount code → same buyer pid).
		if d.eidRef {
			if nullT || nullS || vt.Equal(vs) {
				return
			}
			d.add(Fix{Kind: FixMerge, EID1: vt.String(), EID2: vs.String(), RuleID: ruleID})
			return
		}
		mk := func(rel *data.Relation, tp *data.Tuple, attr string, v data.Value) Fix {
			return Fix{Kind: FixCell, Rel: rel.Schema.Name, Attr: attr, EID1: tp.EID, TID: tp.TID, Value: v, RuleID: ruleID}
		}
		switch {
		case nullT && nullS:
			return
		case nullT:
			d.add(mk(rt, t, p.A, vs))
		case nullS:
			d.add(mk(rs, s, p.B, vt))
		case vt.Equal(vs):
			return
		default:
			// Both sides carry distinct values: the rule asserts they must
			// be equal, but the data cannot certify which one is correct.
			// Decide once per pair (validated side → correlation model →
			// value rarity → user), then assert the winner on both sides —
			// never contaminate the clean side with an arbitrary choice
			// (paper §4.1: fixes must be justified, not guessed).
			winner, ok := e.resolveValuePair(d, side{rt, t, p.ACol, vt}, side{rs, s, p.BCol, vs})
			if !ok {
				return
			}
			if !vt.Equal(winner) {
				d.add(mk(rt, t, p.A, winner))
			}
			if !vs.Equal(winner) {
				d.add(mk(rs, s, p.B, winner))
			}
		}

	case predicate.KTemporal:
		if s == nil {
			return
		}
		d.add(Fix{Kind: FixOrder, Rel: rt.Schema.Name, Attr: p.A, TID1: t.TID, TID2: s.TID, Strict: p.Strict,
			EID1: t.EID, EID2: s.EID, RuleID: ruleID})

	case predicate.KVal:
		if p.XSlot < 0 || h.Vertices[p.XSlot].Graph == "" {
			return
		}
		bx := h.Vertices[p.XSlot]
		g := e.env.Graphs[bx.Graph]
		if g == nil {
			return
		}
		val, ok := g.Val(bx.ID, p.Path)
		if !ok {
			return
		}
		v := coerce(rt, p.ACol, val)
		d.add(Fix{Kind: FixCell, Rel: rt.Schema.Name, Attr: p.A, EID1: t.EID, TID: t.TID, Value: v, RuleID: ruleID})

	case predicate.KPredict:
		md := e.env.Pred[p.Model]
		if md == nil || p.BCol < 0 {
			return
		}
		// Suggest over the tuple as seen through validated values.
		v, _, ok := md.Suggest(e.view.tuple(rt, t), p.BCol)
		if !ok {
			return
		}
		d.add(Fix{Kind: FixCell, Rel: rt.Schema.Name, Attr: p.B, EID1: t.EID, TID: t.TID, Value: v, RuleID: ruleID})
	}
}

// coerce parses a graph value into column col's type, falling back to a
// string.
func coerce(rel *data.Relation, col int, raw string) data.Value {
	if col >= 0 {
		if v, err := data.Parse(rel.Schema.Attrs[col].Type, raw); err == nil {
			return v
		}
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
	mc := e.corr[fx.Rel]
	rel := e.env.DB.Rel(fx.Rel)
	if mc == nil {
		return toUser()
	}
	bIdx := rel.Schema.Index(fx.Attr)
	if bIdx < 0 {
		return toUser()
	}
	// Score both candidates against any tuple of the entity class.
	var probe *data.Tuple
	for _, eid := range e.u.ClassMembers(fx.EID1) {
		if ts := e.tuplesOfEID(fx.Rel, eid); len(ts) > 0 {
			probe = ts[0]
			break
		}
	}
	if probe == nil {
		return toUser()
	}
	anchors := mc.Anchors(e.view.tuple(rel, probe), bIdx)
	oldScore := mc.StrengthAt(anchors, conflict.Old)
	newScore := mc.StrengthAt(anchors, fx.Value)
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
// edges are retracted by rebuilding the attribute's order from Γ's order
// and the surviving log: Γ's edges are never retracted, so a fix that
// contradicts them loses as entailed.
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
	if o := e.gamma.OrderIfAny(fx.Rel, fx.Attr); o != nil {
		rebuilt = o.Clone()
	}
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

// side is one side of a value conflict: a cell and its view value.
type side struct {
	rel *data.Relation
	t   *data.Tuple
	col int
	v   data.Value
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
func (e *Engine) resolveValuePair(d *deduction, a, b side) (data.Value, bool) {
	out := d.out
	relT, attrT := a.rel.Schema.Name, a.rel.Schema.Attrs[a.col].Name
	relS, attrS := b.rel.Schema.Name, b.rel.Schema.Attrs[b.col].Name
	_, validT := e.u.Cell(relT, a.t.EID, attrT)
	_, validS := e.u.Cell(relS, b.t.EID, attrS)
	switch {
	case validT && !validS:
		return a.v, true
	case validS && !validT:
		return b.v, true
	}

	// Correlation model: sum each candidate's strength over both tuples,
	// each seen through the fix set and anchored once per unit (a
	// relation without a model scores 0).
	mcT, mcS := e.corr[relT], e.corr[relS]
	anchT, anchS := e.anchorsOf(d, mcT, a), e.anchorsOf(d, mcS, b)
	score := func(v data.Value) float64 { return mcT.StrengthAt(anchT, v) + mcS.StrengthAt(anchS, v) }
	st, ss := score(a.v), score(b.v)
	// A wide margin: M_c only decides when the correlation evidence is
	// unambiguous (deterministic associations like amount+fee→total or a
	// clear witness majority); weakly separated candidates go to the user.
	// No frequency guessing here — a fix must be justified by ground
	// truth, correlation evidence, or the user, or it is not applied
	// (certain-fix discipline, paper §4.1).
	const margin = 0.25
	if st-ss > margin {
		out.ResolvedMI++
		return a.v, true
	}
	if ss-st > margin {
		out.ResolvedMI++
		return b.v, true
	}

	if answer, ok := e.askOracle(relT, a.t.EID, attrT, []data.Value{a.v, b.v}); ok {
		return answer, true
	}
	if answer, ok := e.askOracle(relS, b.t.EID, attrS, []data.Value{a.v, b.v}); ok {
		return answer, true
	}
	out.Unresolved = append(out.Unresolved, UnresolvedConflict{
		Conflict: &truth.Conflict{Kind: truth.ValueConflict, Rel: relT, Attr: attrT, EID: a.t.EID, Old: a.v, New: b.v},
	})
	return data.Value{}, false
}

// corrByRelation resolves each relation's correlation model: of the
// env's models trained for the relation's schema, the first by model
// name, so every lookup — on any worker, in any round — picks the same
// one.
func corrByRelation(env *predicate.Env) map[string]*ml.CorrelationModel {
	names := make([]string, 0, len(env.Corr))
	for name := range env.Corr {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make(map[string]*ml.CorrelationModel)
	for rel, r := range env.DB.Relations {
		for _, name := range names {
			if m := env.Corr[name]; m.Schema == r.Schema {
				out[rel] = m
				break
			}
		}
	}
	return out
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
			for relName := range e.env.DB.Relations {
				if rel != "" && relName != rel {
					continue
				}
				for _, t := range e.tuplesOfEID(relName, member) {
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
