// Package exec is the local executor of paper §5.3: it evaluates one REE++
// against (a partition of) the data, enumerating only promising valuations.
// A small query optimizer picks the evaluation strategy per rule:
//
//   - constant predicates are pushed down to pre-filter each variable's
//     candidate tuples;
//   - equality join predicates (t.A = s.B) drive the pair enumeration;
//   - ML predicates M(t[A̅], s[B̅]) drive LSH blocking (filter-and-verify,
//     paper §5.4) instead of the quadratic all-pairs sweep;
//   - remaining predicates evaluate as soon as their variables are bound
//     (predicate pushdown), so dead branches prune early.
//
// Joins, constant/null selections and probes each have one body, over
// the environment's dictionary-encoded columns (vector.go, intern.go),
// whatever the relation's size. Its preconditions are invariants, and Run
// reports an error when one fails: a ValueOf hook must come with the
// shadow set of the tuples it may change (SetShadowTracking), and every
// partition a job walks must be TID-ascending. The third, an id for every
// live TID, holds by construction: the column cache serves a column only
// at its relation's current mutation count.
//
// The executor is shared by error detection and the chase; the caller's
// Env decides whether values come from raw data (detection) or from the
// fix set U (chasing).
package exec

import (
	"context"
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
	"time"

	"github.com/rockclean/rock/internal/crystal"
	"github.com/rockclean/rock/internal/data"
	"github.com/rockclean/rock/internal/ml"
	"github.com/rockclean/rock/internal/obs"
	"github.com/rockclean/rock/internal/predicate"
	"github.com/rockclean/rock/internal/ree"
)

// Options tunes one enumeration run.
type Options struct {
	// Ctx, when non-nil, is checked periodically during enumeration: a
	// cancelled context stops the run early through the normal early-exit
	// path and Run returns the context's error. Nil never cancels.
	Ctx context.Context
	// UseBlocking enables LSH blocking for ML predicates. Off, ML
	// predicates fall back to nested loops (the SQL-engine behaviour the
	// paper compares against).
	UseBlocking bool
	// Dirty restricts enumeration to valuations binding at least one dirty
	// tuple: Dirty[rel] is the set of TIDs considered changed. Nil means
	// no restriction (batch mode); non-nil implements the incremental
	// activation of paper §4.1.
	Dirty map[string]map[int]bool
	// Restrict, when non-nil, limits the tuples each variable may bind to
	// (the work unit's data partition, paper §5.2). Keyed by relation.
	Restrict map[string][]*data.Tuple
	// RestrictVar limits individual variables to tuple subsets — the
	// HyperCube partitioning assigns each variable of a rule its own
	// virtual block (paper §5.3). Takes precedence over Restrict.
	RestrictVar map[string][]*data.Tuple
	// MaxResults stops enumeration after this many callbacks (<=0: all).
	MaxResults int
	// Span, when non-nil, is the parent span this run is traced under
	// (the work unit's span). Run opens an "exec" child span and, per ML
	// predicate evaluation, an "ml.<model>" grandchild — only while the
	// registry has spans enabled; otherwise tracing costs one nil check.
	Span *obs.Span
}

// Stats reports what the executor did — used by benches and the lazy-chase
// ablation.
type Stats struct {
	Valuations int // valuations reaching the callback
	Enumerated int // candidate bindings generated before pruning
	MLCalls    int // ML predicate evaluations (post-blocking)
}

// blockerEntry is one cached LSH index: the blocker plus the id→tuple map
// needed to resolve its candidate ids back to tuples.
type blockerEntry struct {
	b    *ml.Blocker
	byID map[int]*data.Tuple
}

// Executor caches per-relation indexes and blockers across rules. Run is
// safe for concurrent use by multiple goroutines: the environment and LSH
// planes are read-only, all enumeration state is per-call, and the blocker
// cache is guarded by a mutex — the parallel chase and detector share one
// executor across their worker pools.
type Executor struct {
	env *predicate.Env
	lsh *ml.LSH

	// embeds, when set, memoises blocking vectors by value across rules
	// and rounds (the §5.4 predication layer). Installed once before any
	// Run; nil means embed on demand.
	embeds *ml.EmbedStore

	// reg, when set, receives blocker-cache hit/miss/invalidation
	// counters ("exec.blocker.*"); nil records nothing (obs methods are
	// nil-safe).
	reg *obs.Registry

	// mu guards blockers; key: rel + attrs signature + partition
	// fingerprint (see blockerKey).
	mu       sync.Mutex
	blockers map[string]*blockerEntry

	// cols is the env's column cache, or a private one when the env has
	// none.
	cols *crystal.Cache

	// in is this executor's view over the dictionary-encoded columns
	// (intern.go): the shadow-TID sets that keep interned comparisons
	// sound under a ValueOf hook, and the registered partition TID arrays.
	in internIndex
}

// New creates an executor over the environment.
func New(env *predicate.Env) *Executor {
	cols := env.Columns
	if cols == nil {
		cols = crystal.NewCache()
	}
	return &Executor{
		env:      env,
		cols:     cols,
		blockers: make(map[string]*blockerEntry),
		lsh:      ml.NewLSH(8, 6, 17),
	}
}

// SetEmbedStore installs the value-keyed embedding store. Call before the
// first Run; the store itself is safe for concurrent use.
func (e *Executor) SetEmbedStore(s *ml.EmbedStore) { e.embeds = s }

// SetObs routes the executor's cache counters into reg. Call before the
// first Run; nil (the default) records nothing.
func (e *Executor) SetObs(reg *obs.Registry) { e.reg = reg }

// InvalidateBlockers drops cached blockers; call after mutating relations
// or the value view they were embedded through (the chase calls it after
// every merge step that changes validated values).
func (e *Executor) InvalidateBlockers() {
	e.mu.Lock()
	e.blockers = make(map[string]*blockerEntry)
	e.mu.Unlock()
	e.reg.Inc("exec.blocker.invalidations")
}

// blockerKey fingerprints one blocking request: relation, the embedded
// attribute list, and the exact tuple partition (FNV-1a over TIDs). Two
// work units over the same block therefore share one LSH index, while
// different HyperCube blocks never collide.
func blockerKey(relName string, attrs []string, tuples []*data.Tuple) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, t := range tuples {
		v := uint64(t.TID)
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	return relName + "\x1f" + strings.Join(attrs, ",") + "\x1f" +
		fmt.Sprintf("%d:%x", len(tuples), h.Sum64())
}

// blockerFor returns the cached LSH index for (relName, attrs, tuples),
// building and caching it on a miss. embed turns one tuple into its
// blocking vector. Concurrent misses on the same key may build twice; the
// last store wins and both results are equivalent.
func (e *Executor) blockerFor(relName string, attrs []string, tuples []*data.Tuple,
	embed func(t *data.Tuple) ml.Vector) *blockerEntry {

	key := blockerKey(relName, attrs, tuples)
	e.mu.Lock()
	if ent, ok := e.blockers[key]; ok {
		e.mu.Unlock()
		e.reg.Inc("exec.blocker.hits")
		return ent
	}
	e.mu.Unlock()
	e.reg.Inc("exec.blocker.misses")
	ent := &blockerEntry{b: ml.NewBlocker(e.lsh), byID: make(map[int]*data.Tuple, len(tuples))}
	for _, t := range tuples {
		ent.byID[t.TID] = t
		ent.b.Add(t.TID, embed(t))
	}
	e.mu.Lock()
	e.blockers[key] = ent
	e.mu.Unlock()
	return ent
}

// CachedBlockers reports the number of live blocker cache entries.
func (e *Executor) CachedBlockers() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.blockers)
}

// Run enumerates valuations h of rule r with h |= X, invoking fn for each.
// fn returns false to stop early. The returned stats describe the run.
func (e *Executor) Run(r *ree.Rule, opts Options, fn func(h *predicate.Valuation) bool) (Stats, error) {
	var st Stats
	if len(r.Atoms) == 0 {
		return st, fmt.Errorf("exec: rule %s has no tuple atoms", r.ID)
	}
	if e.env.ValueOf != nil && !e.in.tracking() {
		return st, fmt.Errorf("exec: rule %s: the env has a ValueOf hook but no shadow set (SetShadowTracking)", r.ID)
	}
	spansOn := e.reg.SpansEnabled()
	var execSpan *obs.Span
	if spansOn {
		execSpan = e.reg.StartSpan("exec", opts.Span)
		execSpan.SetRule(r.ID)
		defer func() {
			execSpan.SetN(int64(st.Valuations))
			execSpan.End()
		}()
	}
	// Per-model ML attribution accumulates locally (the binder is hot)
	// and flushes to the registry once per run.
	var mlWall map[string]time.Duration
	var mlCalls map[string]int64
	if e.reg != nil {
		mlWall = make(map[string]time.Duration)
		mlCalls = make(map[string]int64)
		defer func() {
			for m, n := range mlCalls {
				e.reg.Add("exec.ml."+m+".calls", uint64(n))
				e.reg.Add("exec.ml."+m+".wall_ns", uint64(mlWall[m]))
			}
		}()
	}
	// Candidate tuples per variable after constant pushdown. Filtered
	// candidate lists come from the scratch pool and are released when the
	// run finishes; unfiltered variables alias the partition slice itself
	// (zero copies on the common no-constant-predicate rule).
	cands := make(map[string][]*data.Tuple, len(r.Atoms))
	var pooled [][]*data.Tuple
	defer func() {
		for _, b := range pooled {
			putTupleBuf(b)
		}
	}()
	for _, a := range r.Atoms {
		ts, fromPool, err := e.candidates(r, a, opts)
		if err != nil {
			return st, err
		}
		cands[a.Var] = ts
		if fromPool {
			pooled = append(pooled, ts)
		}
	}

	// Pick a driver pair: an equality join or a blocked ML predicate over
	// the first two variables.
	plan, err := e.plan(r, cands, opts)
	if err != nil {
		return st, err
	}
	if plan.pooledPairs {
		defer putPairBuf(plan.pairs)
	}
	// Join-driven pairs are built from the candidate lists and need no
	// re-check; LSH-driven pairs come from the raw partition and must be
	// intersected with the pushdown survivors.
	var allow1, allow2 map[int]bool
	if plan.pairs != nil && !plan.prefiltered {
		allow1 = tidSet(cands[plan.var1])
		allow2 = tidSet(cands[plan.var2])
	}

	// The recursive binder: bind variables in atom order, but the first
	// two may be driven by the plan's pair generator. Each precondition
	// predicate is evaluated exactly once per binding path, at the depth
	// where its last variable becomes bound; evalDepth records that depth
	// so the evaluation is undone when the binder backtracks past it.
	h := predicate.NewValuation()
	stop := false
	var bindRest func(i int)
	bound := map[string]bool{}
	depth := 0
	evalDepth := make(map[*predicate.Predicate]int, len(r.X))

	// Errors stop enumeration through the same path as an early callback
	// exit, so every binding level unwinds h/bound/depth/evalDepth on the
	// way out — the executor stays clean and reusable after a failed run.
	var finalErr error
	fail := func(err error) {
		if finalErr == nil {
			finalErr = err
		}
		stop = true
	}

	// needs[i] lists the tuple and vertex variables r.X[i] reads, resolved
	// once: checkAt runs at every binding depth of every valuation.
	needs := make([][]string, len(r.X))
	for i, p := range r.X {
		needs[i] = append(p.Vars(), p.VertexVars()...)
	}
	checkAt := func() (bool, error) {
		for i, p := range r.X {
			if plan.covered[p] {
				continue
			}
			if _, done := evalDepth[p]; done {
				continue
			}
			ready := true
			for _, v := range needs[i] {
				if !bound[v] {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			var mname string
			var msp *obs.Span
			var t0 time.Time
			if p.IsML() {
				st.MLCalls++
				if mlCalls != nil {
					mname = modelName(p)
					if spansOn {
						msp = e.reg.StartSpan("ml."+mname, execSpan)
					}
					t0 = time.Now()
				}
			}
			ok, err := p.Eval(e.env, h)
			if mname != "" {
				mlWall[mname] += time.Since(t0)
				mlCalls[mname]++
				msp.End()
			}
			if err != nil {
				return false, err
			}
			if !ok {
				return false, nil
			}
			evalDepth[p] = depth
		}
		return true, nil
	}
	unwind := func() {
		for p, d := range evalDepth {
			if d >= depth {
				delete(evalDepth, p)
			}
		}
	}

	emitCalls := 0
	emit := func() bool {
		// Cooperative cancellation: poll the context every few emit calls so
		// a deadline cuts a long enumeration short between valuations. The
		// counter counts calls, not emitted valuations — the dirty filter
		// below returns before Valuations increments, so an all-clean
		// incremental run polled on Valuations would never observe
		// cancellation no matter how long it enumerates.
		emitCalls++
		if opts.Ctx != nil && emitCalls%64 == 0 {
			if err := opts.Ctx.Err(); err != nil {
				fail(err)
				return false
			}
		}
		// Incremental mode: every emitted valuation must bind at least one
		// dirty tuple (the driver paths pre-filter; the generic nested-loop
		// path is guarded here).
		if opts.Dirty != nil {
			touches := false
			for _, b := range h.Tuples {
				if d := opts.Dirty[b.Rel]; d != nil && d[b.Tuple.TID] {
					touches = true
					break
				}
			}
			if !touches {
				return true
			}
		}
		st.Valuations++
		if !fn(h) {
			stop = true
			return false
		}
		if opts.MaxResults > 0 && st.Valuations >= opts.MaxResults {
			stop = true
			return false
		}
		return true
	}

	var bindVertexes func(vi int)
	bindVertexes = func(vi int) {
		if stop {
			return
		}
		if vi == len(r.VertexAtoms) {
			emit()
			return
		}
		va := r.VertexAtoms[vi]
		g := e.env.Graphs[va.Graph]
		if g == nil {
			fail(fmt.Errorf("exec: rule %s references unknown graph %q", r.ID, va.Graph))
			return
		}
		for _, v := range g.VertexIDs() {
			h.BindVertex(va.Var, va.Graph, v)
			bound[va.Var] = true
			depth++
			ok, err := checkAt()
			if err != nil {
				fail(err)
			} else if ok {
				bindVertexes(vi + 1)
			}
			unwind()
			depth--
			delete(bound, va.Var)
			delete(h.Vertices, va.Var)
			if stop {
				return
			}
		}
	}

	bindRest = func(i int) {
		if stop {
			return
		}
		if i == len(r.Atoms) {
			bindVertexes(0)
			return
		}
		a := r.Atoms[i]
		if bound[a.Var] {
			bindRest(i + 1)
			return
		}
		list := cands[a.Var]
		// Hash-join shortcut: if an equality predicate links a bound var to
		// this one, probe the candidate list instead of scanning; probeJoin
		// works over the constant-pushdown candidate set of the variable, so
		// tuples eliminated by single-variable predicates never re-enumerate.
		idxList, probed, err := e.probeJoin(r, a, bound, h, cands)
		if err != nil {
			fail(err)
			return
		}
		if probed {
			list = idxList
		}
		for _, t := range list {
			if selfPair(h, a, t) {
				continue
			}
			st.Enumerated++
			h.Bind(a.Var, a.Rel, t)
			bound[a.Var] = true
			depth++
			ok, err := checkAt()
			if err != nil {
				fail(err)
			} else if ok {
				bindRest(i + 1)
			}
			unwind()
			depth--
			delete(bound, a.Var)
			delete(h.Tuples, a.Var)
			if stop {
				break
			}
		}
		if probed {
			putTupleBuf(idxList)
		}
	}

	if plan.pairs != nil {
		// Drive the first two variables from the plan's pair list.
		v1, v2 := plan.var1, plan.var2
		rel1, rel2 := r.RelOf(v1), r.RelOf(v2)
		for _, pr := range plan.pairs {
			if stop {
				break
			}
			t1, t2 := pr[0], pr[1]
			if !plan.prefiltered && (!allow1[t1.TID] || !allow2[t2.TID]) {
				continue
			}
			if rel1 == rel2 && t1.TID == t2.TID {
				continue
			}
			st.Enumerated += 2
			h.Bind(v1, rel1, t1)
			h.Bind(v2, rel2, t2)
			bound[v1], bound[v2] = true, true
			depth++
			ok, err := checkAt()
			if err != nil {
				fail(err)
			} else if ok {
				bindRest(0)
			}
			unwind()
			depth--
			delete(bound, v1)
			delete(bound, v2)
			delete(h.Tuples, v1)
			delete(h.Tuples, v2)
		}
	} else {
		bindRest(0)
	}
	return st, finalErr
}

// modelName names the model behind an ML predicate for cost attribution:
// the declared Model when present, else a stable kind-based fallback (some
// ML kinds — HER, match, rank — reference built-in models implicitly).
func modelName(p *predicate.Predicate) string {
	if p.Model != "" {
		return p.Model
	}
	switch p.Kind {
	case predicate.KHER:
		return "HER"
	case predicate.KMatch:
		return "match"
	case predicate.KRank:
		return "rank"
	case predicate.KCorr:
		return "corr"
	case predicate.KPredict:
		return "predict"
	}
	return "ml"
}

func selfPair(h *predicate.Valuation, a ree.Atom, t *data.Tuple) bool {
	for _, b := range h.Tuples {
		if b.Rel == a.Rel && b.Tuple.TID == t.TID {
			return true
		}
	}
	return false
}

// candidates lists the tuples variable a.Var may bind to after constant
// pushdown, partition restriction and dirty filtering. fromPool reports
// that the returned slice came from the scratch pool (the caller releases
// it); false means it aliases the partition itself and must not be
// mutated or pooled.
func (e *Executor) candidates(r *ree.Rule, a ree.Atom, opts Options) (out []*data.Tuple, fromPool bool, err error) {
	rel := e.env.DB.Rel(a.Rel)
	if rel == nil {
		return nil, false, fmt.Errorf("exec: rule %s references unknown relation %q", r.ID, a.Rel)
	}
	base := partitionOf(rel, a.Rel, a.Var, opts)
	// Every filter that is an id compare (null checks, and constant = / !=)
	// runs over its interned column; the rest (ordered constant compares)
	// evaluate per survivor. Null checks read raw data; constant compares
	// read through the value view, so shadowed tuples re-evaluate per tuple
	// (keepFasts).
	var fasts []idFilter
	var slows []*predicate.Predicate
	for _, p := range r.X {
		if p.T != a.Var || (p.Kind != predicate.KConst && p.Kind != predicate.KNull && p.Kind != predicate.KNotNull) {
			continue
		}
		var col *crystal.Column
		if p.Kind != predicate.KConst || p.Op == predicate.Eq || p.Op == predicate.Neq {
			col = e.internedCol(a.Rel, p.A)
		}
		if col == nil {
			slows = append(slows, p)
			continue
		}
		f := idFilter{p: p, col: col, viewed: p.Kind == predicate.KConst}
		f.nullID, f.hasNull = col.Dict.NullID()
		if p.Kind == predicate.KConst {
			f.cid, f.hasCID = col.Dict.ID(p.C)
		}
		fasts = append(fasts, f)
	}
	if len(fasts) == 0 && len(slows) == 0 {
		return base, false, nil
	}
	out, err = e.candidatesVec(a, base, fasts, slows, e.shadowOf(a.Rel))
	return out, true, err
}

// tidSet builds the membership set of a candidate list.
func tidSet(ts []*data.Tuple) map[int]bool {
	set := make(map[int]bool, len(ts))
	for _, t := range ts {
		set[t.TID] = true
	}
	return set
}

// execPlan is the chosen driver for the first two variables.
type execPlan struct {
	var1, var2 string
	pairs      [][2]*data.Tuple
	// covered marks predicates certified by the driver (join equality).
	covered map[*predicate.Predicate]bool
	// prefiltered marks pair lists built from the pushdown candidate
	// lists — the pairs loop skips its allowed-set intersection.
	prefiltered bool
	// pooledPairs marks pairs as pool scratch, released after the run.
	pooledPairs bool
}

// plan inspects the rule and builds pair candidates via hash join or LSH
// blocking when profitable.
func (e *Executor) plan(r *ree.Rule, cands map[string][]*data.Tuple, opts Options) (execPlan, error) {
	pl := execPlan{covered: map[*predicate.Predicate]bool{}}
	if len(r.Atoms) < 2 {
		return pl, nil
	}
	// Prefer an equality join between two distinct variables.
	for _, p := range r.X {
		if p.Kind == predicate.KAttr && p.Op == predicate.Eq && p.T != p.S {
			tuplesT, okT := cands[p.T]
			tuplesS, okS := cands[p.S]
			if !okT || !okS {
				continue
			}
			pairs, err := e.hashJoin(r, p, opts, tuplesT, tuplesS)
			if err != nil {
				return pl, err
			}
			if pairs != nil {
				pl.var1, pl.var2, pl.pairs = p.T, p.S, pairs
				pl.covered[p] = true
				pl.prefiltered = true
				pl.pooledPairs = true
				return pl, nil
			}
		}
	}
	// Otherwise a blocked ML predicate.
	if opts.UseBlocking {
		for _, p := range r.X {
			if p.Kind == predicate.KML && p.T != p.S {
				pairs := e.blockPairs(r, p, opts)
				if pairs != nil {
					pl.var1, pl.var2, pl.pairs = p.T, p.S, pairs
					// Not covered: the model still verifies each candidate.
					// Not prefiltered: LSH pairs come from the raw partition.
					return pl, nil
				}
			}
		}
	}
	return pl, nil
}

// hashJoin builds (t, s) pairs with t.A = s.B from the two variables'
// pushdown candidate lists, t-major with s in candidate order, by
// enumerating colB's posting lists (postingJoin, vector.go). The pairs
// are pool scratch; nil means the schema does not resolve the join.
func (e *Executor) hashJoin(r *ree.Rule, p *predicate.Predicate, opts Options,
	tuplesT, tuplesS []*data.Tuple) ([][2]*data.Tuple, error) {
	relTName, relSName := r.RelOf(p.T), r.RelOf(p.S)
	relT := e.env.DB.Rel(relTName)
	relS := e.env.DB.Rel(relSName)
	if relT == nil || relS == nil {
		return nil, nil
	}
	bi := relS.Schema.Index(p.B)
	ai := relT.Schema.Index(p.A)
	if ai < 0 || bi < 0 {
		return nil, nil
	}
	colA := e.internedCol(relTName, p.A)
	colB := e.internedCol(relSName, p.B)
	return e.postingJoin(r, p, opts, tuplesT, tuplesS, colA, colB, ai, bi, relS)
}

// blockPairs builds candidate (t, s) pairs for an ML predicate via LSH.
func (e *Executor) blockPairs(r *ree.Rule, p *predicate.Predicate, opts Options) [][2]*data.Tuple {
	relTName, relSName := r.RelOf(p.T), r.RelOf(p.S)
	relT, relS := e.env.DB.Rel(relTName), e.env.DB.Rel(relSName)
	if relT == nil || relS == nil {
		return nil
	}
	tuplesT := partitionOf(relT, relTName, p.T, opts)
	tuplesS := partitionOf(relS, relSName, p.S, opts)
	sameSide := relTName == relSName && sameAttrs(p.As, p.Bs)

	// Reads go through the embedding store when installed: a value vector
	// probed by many rules (or re-probed across rounds) embeds once
	// instead of once per probe.
	embed := func(rel *data.Relation, relName string, t *data.Tuple, attrs []string) ml.Vector {
		vals := make([]data.Value, len(attrs))
		for i, a := range attrs {
			vals[i] = valueThrough(e.env, relName, t, a, rel.Schema.Index(a))
		}
		return e.embeds.Embed(vals)
	}

	if sameSide {
		ent := e.blockerFor(relTName, p.As, tuplesT, func(t *data.Tuple) ml.Vector {
			return embed(relT, relTName, t, p.As)
		})
		out := make([][2]*data.Tuple, 0)
		for _, pr := range ent.b.CandidatePairs() {
			t, s := ent.byID[pr[0]], ent.byID[pr[1]]
			if dirtyOK(opts, r, p.T, t, p.S, s) {
				out = append(out, [2]*data.Tuple{t, s})
			}
			// Symmetric valuation: the reverse binding may matter for
			// asymmetric consequences.
			if dirtyOK(opts, r, p.T, s, p.S, t) {
				out = append(out, [2]*data.Tuple{s, t})
			}
		}
		return out
	}
	// Cross-relation: index S, probe with T.
	ent := e.blockerFor(relSName, p.Bs, tuplesS, func(s *data.Tuple) ml.Vector {
		return embed(relS, relSName, s, p.Bs)
	})
	out := make([][2]*data.Tuple, 0)
	for _, t := range tuplesT {
		for _, sid := range ent.b.CandidatesOf(embed(relT, relTName, t, p.As), -1) {
			s := ent.byID[sid]
			if dirtyOK(opts, r, p.T, t, p.S, s) {
				out = append(out, [2]*data.Tuple{t, s})
			}
		}
	}
	return out
}

// MLJob is one (model, pair) predication to precompute: the attribute
// value vectors an ML predicate will score during rule evaluation.
type MLJob struct {
	Model string
	Left  []data.Value
	Right []data.Value
}

// MLJobs enumerates the predications rule r will need this round: when
// the planner drives enumeration with a blocked ML predicate
// (filter-and-verify), the model verifies exactly one (left, right)
// vector pair per LSH candidate pair — that is the set returned here.
// The chase scores it in parallel before fanning work units out (paper
// §5.4, "ML predication is precomputed"), so deduction reads
// predictions instead of computing them. Join-driven rules return nil:
// their ML predicates score only the pairs surviving the join and
// earlier predicates, a subset not worth over-computing. Work-unit
// candidate pairs are a subset of the full-relation pairs returned here
// (an LSH bucket hash depends only on the vector), and any residual
// miss during evaluation still computes correctly — precompute is an
// optimisation, never a correctness dependency.
func (e *Executor) MLJobs(r *ree.Rule, opts Options) []MLJob {
	if !opts.UseBlocking {
		return nil
	}
	p := e.mlDriverOf(r)
	if p == nil {
		return nil
	}
	pairs := e.blockPairs(r, p, opts)
	if len(pairs) == 0 {
		return nil
	}
	relTName, relSName := r.RelOf(p.T), r.RelOf(p.S)
	out := make([]MLJob, 0, len(pairs))
	for _, pr := range pairs {
		out = append(out, MLJob{
			Model: p.Model,
			Left:  e.mlValues(relTName, pr[0], p.As),
			Right: e.mlValues(relSName, pr[1], p.Bs),
		})
	}
	return out
}

// mlDriverOf mirrors plan's driver selection without materialising any
// pairs: it returns the ML predicate blocking would drive rule r with,
// or nil when an equality hash join takes precedence (plan prefers it)
// or no two-variable ML predicate resolves.
func (e *Executor) mlDriverOf(r *ree.Rule) *predicate.Predicate {
	if len(r.Atoms) < 2 {
		return nil
	}
	for _, p := range r.X {
		if p.Kind == predicate.KAttr && p.Op == predicate.Eq && p.T != p.S {
			relT, relS := e.env.DB.Rel(r.RelOf(p.T)), e.env.DB.Rel(r.RelOf(p.S))
			if relT != nil && relS != nil && relT.Schema.Index(p.A) >= 0 && relS.Schema.Index(p.B) >= 0 {
				return nil // join-driven
			}
		}
	}
	for _, p := range r.X {
		if p.Kind == predicate.KML && p.T != p.S {
			if e.env.DB.Rel(r.RelOf(p.T)) != nil && e.env.DB.Rel(r.RelOf(p.S)) != nil {
				return p
			}
		}
	}
	return nil
}

// mlValues reads the attribute vector an ML predicate scores, through
// the env's value view (fix set U during chasing, raw data otherwise).
func (e *Executor) mlValues(relName string, t *data.Tuple, attrs []string) []data.Value {
	rel := e.env.DB.Rel(relName)
	vals := make([]data.Value, len(attrs))
	for i, a := range attrs {
		idx := -1
		if rel != nil {
			idx = rel.Schema.Index(a)
		}
		vals[i] = valueThrough(e.env, relName, t, a, idx)
	}
	return vals
}

func sameAttrs(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func partitionOf(rel *data.Relation, name, varName string, opts Options) []*data.Tuple {
	if opts.RestrictVar != nil {
		if part, ok := opts.RestrictVar[varName]; ok {
			return part
		}
	}
	if opts.Restrict != nil {
		if part, ok := opts.Restrict[name]; ok {
			return part
		}
	}
	return rel.Tuples
}

// dirtyOK applies the incremental-mode filter: at least one of the two
// tuples must be dirty when a dirty set is supplied.
func dirtyOK(opts Options, r *ree.Rule, v1 string, t1 *data.Tuple, v2 string, t2 *data.Tuple) bool {
	if opts.Dirty == nil {
		return true
	}
	if d := opts.Dirty[r.RelOf(v1)]; d != nil && d[t1.TID] {
		return true
	}
	if d := opts.Dirty[r.RelOf(v2)]; d != nil && d[t2.TID] {
		return true
	}
	return false
}

// probeJoin, during recursive binding, returns a filtered candidate list
// for atom a when some already-bound variable is linked to it by an
// equality predicate. It filters the variable's constant-pushdown
// candidate list with one posting-list intersection (probeJoinVec), so
// tuples already eliminated by single-variable predicates are never
// re-enumerated. probed is false when no equality applies; otherwise
// list is pool scratch the caller must release.
func (e *Executor) probeJoin(r *ree.Rule, a ree.Atom, bound map[string]bool, h *predicate.Valuation,
	cands map[string][]*data.Tuple) (list []*data.Tuple, probed bool, err error) {
	rel := e.env.DB.Rel(a.Rel)
	if rel == nil {
		return nil, false, nil
	}
	for _, p := range r.X {
		if p.Kind != predicate.KAttr || p.Op != predicate.Eq {
			continue
		}
		var boundVar, boundAttr, freeAttr string
		switch {
		case p.S == a.Var && bound[p.T]:
			boundVar, boundAttr, freeAttr = p.T, p.A, p.B
		case p.T == a.Var && bound[p.S]:
			boundVar, boundAttr, freeAttr = p.S, p.B, p.A
		default:
			continue
		}
		b := h.Tuples[boundVar]
		brel := e.env.DB.Rel(b.Rel)
		if brel == nil {
			continue
		}
		v := valueThrough(e.env, b.Rel, b.Tuple, boundAttr, brel.Schema.Index(boundAttr))
		if v.IsNull() {
			continue
		}
		fi := rel.Schema.Index(freeAttr)
		if fi < 0 {
			continue
		}
		list, err = e.probeJoinVec(a.Rel, cands[a.Var], e.internedCol(a.Rel, freeAttr), v, freeAttr, fi)
		return list, err == nil, err
	}
	return nil, false, nil
}

// valueThrough reads t[attr] through the env's ValueOf hook when present.
func valueThrough(env *predicate.Env, rel string, t *data.Tuple, attr string, idx int) data.Value {
	if env.ValueOf != nil {
		v, ok := env.ValueOf(rel, t, attr)
		if !ok {
			return data.Value{}
		}
		return v
	}
	if idx < 0 || idx >= len(t.Values) {
		return data.Value{}
	}
	return t.Values[idx]
}

// PlanAtoms returns r's tuple atoms as the HyperCube planner
// (crystal.UnitsFor) reads them.
func PlanAtoms(r *ree.Rule) []crystal.Atom {
	atoms := make([]crystal.Atom, len(r.Atoms))
	for i, a := range r.Atoms {
		atoms[i] = crystal.Atom(a)
	}
	return atoms
}
