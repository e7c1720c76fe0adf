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
	// RestrictVar limits individual variables to blocks of their relation
	// — the HyperCube partitioning assigns each variable of a rule its own
	// virtual block (paper §5.3). A variable it does not name ranges over
	// its whole relation.
	RestrictVar map[string]crystal.Block
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

// Executor evaluates rules over one environment. Run is safe for
// concurrent use by multiple goroutines: the environment, the column
// cache and the LSH planes are shared read-mostly, and all enumeration
// state — LSH blocker indexes included — is per call, so the parallel
// chase and detector share one executor across their worker pools.
type Executor struct {
	env *predicate.Env
	lsh *ml.LSH

	// embeds, when set, memoises blocking vectors by value across rules
	// and rounds (the §5.4 predication layer). Installed once before any
	// Run; nil means embed on demand.
	embeds *ml.EmbedStore

	// reg, when set, receives the executor's spans and its "exec.*"
	// counters (columns built, vectorized jobs, per-model ML calls); nil
	// records nothing (obs methods are nil-safe).
	reg *obs.Registry

	// cols is the env's column cache, or a private one when the env has
	// none.
	cols *crystal.Cache

	// in is this executor's view over the dictionary-encoded columns
	// (intern.go): the shadow-TID sets that keep interned comparisons
	// sound under a ValueOf hook.
	in internIndex
}

// New creates an executor over the environment.
func New(env *predicate.Env) *Executor {
	cols := env.Columns
	if cols == nil {
		cols = crystal.NewCache()
	}
	return &Executor{
		env:  env,
		cols: cols,
		lsh:  ml.NewLSH(8, 6, 17),
	}
}

// SetEmbedStore installs the value-keyed embedding store. Call before the
// first Run; the store itself is safe for concurrent use.
func (e *Executor) SetEmbedStore(s *ml.EmbedStore) { e.embeds = s }

// SetObs routes the executor's spans and counters into reg. Call before
// the first Run; nil (the default) records nothing.
func (e *Executor) SetObs(reg *obs.Registry) { e.reg = reg }

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
	// run finishes; unfiltered variables alias the block itself (zero
	// copies on the common no-constant-predicate rule).
	cands := make(map[string]crystal.Block, len(r.Atoms))
	var pooled []crystal.Block
	defer func() {
		for _, b := range pooled {
			putTupleBuf(b.Tuples)
			putIntBuf(b.TIDs)
		}
	}()
	for _, a := range r.Atoms {
		b, fromPool, err := e.candidates(r, a, opts)
		if err != nil {
			return st, err
		}
		cands[a.Var] = b
		if fromPool {
			pooled = append(pooled, b)
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
		allow1 = tidSet(cands[plan.var1].Tuples)
		allow2 = tidSet(cands[plan.var2].Tuples)
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
		list := cands[a.Var].Tuples
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
// pushdown and partition restriction, with their TIDs. Under a dirty
// filter, the one variable of a single-atom rule ranges over its dirty
// tuples only: every valuation binds it and nothing else. fromPool
// reports that the returned block came from the scratch pool (the caller
// releases it); false means it aliases the partition itself and must not
// be mutated or pooled.
func (e *Executor) candidates(r *ree.Rule, a ree.Atom, opts Options) (out crystal.Block, fromPool bool, err error) {
	rel := e.env.DB.Rel(a.Rel)
	if rel == nil {
		return out, false, fmt.Errorf("exec: rule %s references unknown relation %q", r.ID, a.Rel)
	}
	base := e.partitionOf(rel, a.Var, opts)
	basePooled := opts.Dirty != nil && len(r.Atoms) == 1
	if basePooled {
		if base, err = dirtyOnly(base, opts.Dirty[a.Rel]); err != nil {
			return out, false, err
		}
	}
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
		return base, basePooled, nil
	}
	out, err = e.candidatesVec(a, base, fasts, slows, e.shadowOf(a.Rel))
	if basePooled {
		putTupleBuf(base.Tuples)
		putIntBuf(base.TIDs)
	}
	return out, err == nil, err
}

// dirtyOnly returns the tuples of base whose TIDs are in dirty, in base
// order, as pool scratch.
func dirtyOnly(base crystal.Block, dirty map[int]bool) (crystal.Block, error) {
	tids, pooled, err := tidsOf(base)
	if err != nil {
		return crystal.Block{}, err
	}
	if pooled {
		defer putIntBuf(tids)
	}
	pos := appendDirtyPositions(getPosBuf(), dirty, tids)
	out := crystal.Block{Tuples: getTupleBuf(), TIDs: getIntBuf()}
	for _, p := range pos {
		out.Tuples = append(out.Tuples, base.Tuples[p])
		out.TIDs = append(out.TIDs, tids[p])
	}
	putPosBuf(pos)
	return out, nil
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
func (e *Executor) plan(r *ree.Rule, cands map[string]crystal.Block, opts Options) (execPlan, error) {
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
	tuplesT, tuplesS crystal.Block) ([][2]*data.Tuple, error) {
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

// blockPairs builds candidate (t, s) pairs for an ML predicate by LSH
// (filter-and-verify, paper §5.4): it indexes the s-side block and probes
// it with each t of the t-side block, t-major. The index is built per
// call from the current value view, so no index outlives the values it
// embeds; a same-relation pair (t, t) is skipped by the pairs loop.
func (e *Executor) blockPairs(r *ree.Rule, p *predicate.Predicate, opts Options) [][2]*data.Tuple {
	relTName, relSName := r.RelOf(p.T), r.RelOf(p.S)
	relT, relS := e.env.DB.Rel(relTName), e.env.DB.Rel(relSName)
	if relT == nil || relS == nil {
		return nil
	}
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
	tuplesS := e.partitionOf(relS, p.S, opts).Tuples
	b := ml.NewBlocker(e.lsh)
	byID := make(map[int]*data.Tuple, len(tuplesS))
	for _, s := range tuplesS {
		byID[s.TID] = s
		b.Add(s.TID, embed(relS, relSName, s, p.Bs))
	}
	out := make([][2]*data.Tuple, 0)
	for _, t := range e.partitionOf(relT, p.T, opts).Tuples {
		for _, sid := range b.CandidatesOf(embed(relT, relTName, t, p.As), -1) {
			s := byID[sid]
			if dirtyOK(opts, r, p.T, t, p.S, s) {
				out = append(out, [2]*data.Tuple{t, s})
			}
		}
	}
	return out
}

// partitionOf is the block varName ranges over: its RestrictVar block, or
// the whole relation as the cache's one block of it.
func (e *Executor) partitionOf(rel *data.Relation, varName string, opts Options) crystal.Block {
	if part, ok := opts.RestrictVar[varName]; ok {
		return part
	}
	return e.cols.Blocks(rel, 1)[0]
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
	cands map[string]crystal.Block) (list []*data.Tuple, probed bool, err error) {
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
