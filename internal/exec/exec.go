// Package exec is the local executor of paper §5.3: it evaluates one REE++
// against (a partition of) the data, enumerating only promising valuations.
// When the consequence p0 is an attribute equality t.A = s.B, Run emits
// only the valuations h |= X on which p0 does not hold (a null on either
// side never holds): a valuation that satisfies p0 detects nothing and
// deduces nothing, so no caller receives one. Every other consequence
// gets every h |= X.
//
// A small query optimizer picks the evaluation strategy per rule:
//
//   - constant predicates are pushed down to pre-filter each variable's
//     candidate tuples;
//   - equality join predicates (t.A = s.B) drive the pair enumeration;
//   - ML predicates M(t[A̅], s[B̅]) drive LSH blocking (filter-and-verify,
//     paper §5.4) instead of the quadratic all-pairs sweep;
//   - remaining predicates evaluate as soon as their variables are bound
//     (predicate pushdown), so dead branches prune early;
//   - an attribute-equality p0 is checked first at the level that binds
//     its last variable, and the equality join drops a raw pair whose p0
//     values are Equal before it is bound, and a whole join group whose
//     raw tuples all hold t's p0 value before it is intersected.
//
// Joins and constant/null selections each have one body, over the
// environment's dictionary-encoded columns (vector.go, intern.go),
// whatever the relation's size; a probe is a selection. Run reports an
// error when a partition a job walks is not TID-ascending; an id for
// every live TID holds by construction, since the column cache serves a
// column only at its relation's current mutation count.
//
// The executor is shared by error detection and the chase, and only reads
// the caller's Env: without a View values come from raw data (detection);
// with one, from the chase's view over the fix set U, which also names
// the tuples whose values may differ from raw (predicate.View.Shadowed).
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
	Enumerated int // candidate bindings generated before pruning (a pair the join drops is none)
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

// Run enumerates valuations h of rule r with h |= X, invoking fn for each
// — except, when r's consequence is an attribute equality t.A = s.B, the
// valuations on which it already holds (both values non-null and Equal,
// as the env reads them): those are never bound, counted or emitted, so
// fn sees exactly the violations. fn returns false to stop early. The
// returned stats describe the run.
// The rule is compiled to slots once per call (ree.Rule.Compile): h is
// one slot array reused for every valuation, and fn reads h.Frame.P0
// for the consequence. fn must not retain h past its return (Clone it).
func (e *Executor) Run(r *ree.Rule, opts Options, fn func(h *predicate.Valuation) bool) (Stats, error) {
	var st Stats
	if len(r.Atoms) == 0 {
		return st, fmt.Errorf("exec: rule %s has no tuple atoms", r.ID)
	}
	fr, err := r.Compile(e.env.DB)
	if err != nil {
		return st, fmt.Errorf("exec: %w", err)
	}
	b := &binder{e: e, id: r.ID, fr: fr, opts: opts, fn: fn, st: &st, h: fr.NewValuation()}
	if b.spans = e.reg.SpansEnabled(); b.spans {
		b.execSpan = e.reg.StartSpan("exec", opts.Span)
		b.execSpan.SetRule(r.ID)
		defer func() {
			b.execSpan.SetN(int64(st.Valuations))
			b.execSpan.End()
		}()
	}
	// Per-predicate ML attribution accumulates locally (the binder is
	// hot) and flushes to the registry, by model, once per run.
	if e.reg != nil {
		b.mlWall = make([]time.Duration, len(fr.X))
		b.mlCalls = make([]int64, len(fr.X))
		defer func() {
			for i, p := range fr.X {
				if b.mlCalls[i] > 0 {
					m := modelName(p.Predicate)
					e.reg.Add("exec.ml."+m+".calls", uint64(b.mlCalls[i]))
					e.reg.Add("exec.ml."+m+".wall_ns", uint64(b.mlWall[i]))
				}
			}
		}()
	}
	// Candidate tuples per slot after constant pushdown. Filtered
	// candidate lists come from the scratch pool and are released when the
	// run finishes; unfiltered slots alias the block itself (zero copies
	// on the common no-constant-predicate rule).
	b.cands = make([]crystal.Block, len(fr.Vars))
	var pooled []crystal.Block
	defer func() {
		for _, c := range pooled {
			putTupleBuf(c.Tuples)
			putIntBuf(c.TIDs)
		}
	}()
	for slot := range fr.Vars {
		c, fromPool, err := e.candidates(fr, slot, opts)
		if err != nil {
			return st, err
		}
		b.cands[slot] = c
		if fromPool {
			pooled = append(pooled, c)
		}
	}

	// Pick a driver pair: an equality join or a blocked ML predicate over
	// the first two variables.
	plan, err := e.plan(fr, b.cands, opts)
	if err != nil {
		return st, err
	}
	if plan.pairs != nil {
		defer putPairBuf(plan.pairs)
	}
	b.layout(plan)
	if opts.Dirty != nil {
		b.dirty = make([]map[int]bool, len(fr.Vars))
		for slot, rel := range fr.Rels {
			b.dirty[slot] = opts.Dirty[rel.Schema.Name]
		}
	}
	if plan.pairs == nil {
		b.bindLevel(0)
		return st, b.err
	}
	// Drive the first two slots from the plan's pair list, built from
	// the two slots' pushdown candidate lists.
	sameRel := fr.Rels[plan.slot1] == fr.Rels[plan.slot2]
	for _, pr := range plan.pairs {
		if b.stop {
			break
		}
		t1, t2 := pr[0], pr[1]
		if sameRel && t1.TID == t2.TID {
			continue
		}
		st.Enumerated += 2
		b.h.Tuples[plan.slot1], b.h.Tuples[plan.slot2] = t1, t2
		if b.checkAt(0) {
			b.bindLevel(1)
		}
	}
	return st, b.err
}

// binder is one Run's enumeration state over the rule's frame. A binding
// is an index write into h, and backtracking rewrites the slot on the
// next binding, so nothing is ever unbound.
type binder struct {
	e     *Executor
	id    string // the rule's
	fr    *predicate.Frame
	opts  Options
	fn    func(h *predicate.Valuation) bool
	st    *Stats
	h     *predicate.Valuation
	cands []crystal.Block
	// levels is the binding order: a pair-driven plan binds its two slots
	// at level 0, then each other tuple slot and each vertex slot has one.
	levels []level
	dirty  []map[int]bool // per slot, its relation's Options.Dirty set

	stop  bool
	err   error
	polls int // checkAt calls, for cancellation

	spans    bool // the registry records spans
	execSpan *obs.Span
	mlWall   []time.Duration // per fr.X predicate, nil without a registry
	mlCalls  []int64
}

// level is one binding step: of a tuple slot, a vertex slot (-1: not
// one), or the plan's pair (both -1).
type level struct {
	slot, vslot int
	// ready lists, in X order, the predicates whose last variable this
	// level binds: each is evaluated exactly once per binding path, here.
	ready []int
	// violates marks the level that binds the last slot of an attribute
	// equality P0: a binding on which P0 already holds is rejected here,
	// before any predicate of ready.
	violates bool
	// self lists the earlier slots over the same relation, whose tuples
	// this one does not bind again (no self-pairs); probes are the
	// equalities linking an earlier slot to this one, in X order.
	self   []int
	probes []probe
}

// probe is one equality t.A = s.B usable to probe a level's slot from an
// earlier one: the equality itself, the bound side's slot and column, and
// the free side's attribute.
type probe struct {
	p                   *predicate.Compiled
	boundSlot, boundCol int
	freeAttr            string
}

// layout fixes the binding order for the plan and precomputes each
// level's ready predicates, self-pair slots and equality probes — O(|X|)
// per run, so checkAt never rescans X.
func (b *binder) layout(plan execPlan) {
	fr := b.fr
	levelOf := make([]int, len(fr.Vars))
	bound := make([]bool, len(fr.Vars))
	if plan.pairs != nil {
		b.levels = append(b.levels, level{slot: -1, vslot: -1})
		bound[plan.slot1], bound[plan.slot2] = true, true
	}
	for slot := range fr.Vars {
		if bound[slot] {
			continue
		}
		lv := level{slot: slot, vslot: -1}
		for prev, ok := range bound {
			if ok && fr.Rels[prev] == fr.Rels[slot] {
				lv.self = append(lv.self, prev)
			}
		}
		for _, p := range fr.X {
			if p.Kind != predicate.KAttr || p.Op != predicate.Eq {
				continue
			}
			switch {
			case p.SSlot == slot && p.TSlot >= 0 && bound[p.TSlot] && p.BCol >= 0:
				lv.probes = append(lv.probes, probe{p, p.TSlot, p.ACol, p.B})
			case p.TSlot == slot && p.SSlot >= 0 && bound[p.SSlot] && p.ACol >= 0:
				lv.probes = append(lv.probes, probe{p, p.SSlot, p.BCol, p.A})
			}
		}
		levelOf[slot] = len(b.levels)
		b.levels = append(b.levels, lv)
		bound[slot] = true
	}
	vlevelOf := make([]int, len(fr.VertexVars))
	for vs := range fr.VertexVars {
		vlevelOf[vs] = len(b.levels)
		b.levels = append(b.levels, level{slot: -1, vslot: vs})
	}
	for i, p := range fr.X {
		// A predicate naming a variable the rule does not bind is never
		// ready, so never evaluated.
		if plan.covered == p || (p.T != "" && p.TSlot < 0) || (p.S != "" && p.SSlot < 0) || (p.X != "" && p.XSlot < 0) {
			continue
		}
		at := 0
		if p.TSlot >= 0 {
			at = levelOf[p.TSlot]
		}
		if p.SSlot >= 0 {
			at = max(at, levelOf[p.SSlot])
		}
		if p.XSlot >= 0 {
			at = max(at, vlevelOf[p.XSlot])
		}
		b.levels[at].ready = append(b.levels[at].ready, i)
	}
	if p := fr.P0; equates(p) && p.TSlot >= 0 && p.SSlot >= 0 {
		b.levels[max(levelOf[p.TSlot], levelOf[p.SSlot])].violates = true
	}
}

// equates reports that p is an attribute equality t.A = s.B over two
// resolved columns: the consequence Run drops a valuation for satisfying.
func equates(p *predicate.Compiled) bool {
	return p != nil && p.Kind == predicate.KAttr && p.Op == predicate.Eq && p.ACol >= 0 && p.BCol >= 0
}

// checkAt rejects a binding on which level li's P0 already holds, then
// evaluates the predicates that become ready at li, in X order, stopping
// at the first false one. An error fails the run.
func (b *binder) checkAt(li int) bool {
	// Cooperative cancellation: poll the context every few bindings, so a
	// deadline cuts a long enumeration short even when P0 or the dirty
	// filter rejects everything it binds.
	b.polls++
	if b.opts.Ctx != nil && b.polls%64 == 0 {
		if err := b.opts.Ctx.Err(); err != nil {
			b.fail(err)
			return false
		}
	}
	if b.levels[li].violates {
		holds, err := b.fr.P0.Eval(b.e.env, b.h)
		if err != nil {
			b.fail(err)
			return false
		}
		if holds {
			return false
		}
	}
	for _, i := range b.levels[li].ready {
		p := b.fr.X[i]
		var msp *obs.Span
		var t0 time.Time
		isML := p.IsML()
		if isML {
			b.st.MLCalls++
			if b.mlCalls != nil {
				if b.spans {
					msp = b.e.reg.StartSpan("ml."+modelName(p.Predicate), b.execSpan)
				}
				t0 = time.Now()
			}
		}
		ok, err := p.Eval(b.e.env, b.h)
		if isML && b.mlCalls != nil {
			b.mlWall[i] += time.Since(t0)
			b.mlCalls[i]++
			msp.End()
		}
		if err != nil {
			b.fail(err)
			return false
		}
		if !ok {
			return false
		}
	}
	return true
}

// fail stops enumeration through the same path as an early callback
// exit, keeping the first error.
func (b *binder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
	b.stop = true
}

// bindLevel binds level li and every level after it, emitting each
// complete valuation.
func (b *binder) bindLevel(li int) {
	if b.stop {
		return
	}
	if li == len(b.levels) {
		b.emit()
		return
	}
	lv := &b.levels[li]
	if lv.vslot >= 0 {
		graph := b.fr.Graphs[lv.vslot]
		g := b.e.env.Graphs[graph]
		if g == nil {
			b.fail(fmt.Errorf("exec: rule %s references unknown graph %q", b.id, graph))
			return
		}
		for _, v := range g.VertexIDs() {
			b.h.Vertices[lv.vslot] = predicate.VertexBinding{Graph: graph, ID: v}
			if b.checkAt(li) {
				b.bindLevel(li + 1)
			}
			if b.stop {
				return
			}
		}
		return
	}
	list := b.cands[lv.slot].Tuples
	// Hash-join shortcut: if an equality predicate links a bound slot to
	// this one, probe the candidate list instead of scanning; probeJoin
	// works over the constant-pushdown candidate set of the slot, so
	// tuples eliminated by single-variable predicates never re-enumerate.
	idxList, probed, err := b.e.probeJoin(b.fr, lv, b.h, b.cands[lv.slot])
	if err != nil {
		b.fail(err)
		return
	}
	if probed {
		list = idxList
		defer putTupleBuf(idxList)
	}
	for _, t := range list {
		if b.selfPair(lv, t) {
			continue
		}
		b.st.Enumerated++
		b.h.Tuples[lv.slot] = t
		if b.checkAt(li) {
			b.bindLevel(li + 1)
		}
		if b.stop {
			break
		}
	}
}

// selfPair reports that an earlier slot over the same relation holds t.
func (b *binder) selfPair(lv *level, t *data.Tuple) bool {
	for _, s := range lv.self {
		if b.h.Tuples[s].TID == t.TID {
			return true
		}
	}
	return false
}

// emit hands one complete valuation to the callback.
func (b *binder) emit() {
	// Incremental mode: every emitted valuation must bind at least one
	// dirty tuple (the driver paths pre-filter; the generic nested-loop
	// path is guarded here).
	if b.dirty != nil {
		touches := false
		for slot, d := range b.dirty {
			if d != nil && d[b.h.Tuples[slot].TID] {
				touches = true
				break
			}
		}
		if !touches {
			return
		}
	}
	b.st.Valuations++
	if !b.fn(b.h) {
		b.stop = true
	}
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

// candidates lists the tuples slot may bind to after constant pushdown
// and partition restriction, with their TIDs. Under a dirty filter, the
// one slot of a single-atom rule ranges over its dirty tuples only: every
// valuation binds it and nothing else. fromPool reports that the returned
// block came from the scratch pool (the caller releases it); false means
// it aliases the partition itself and must not be mutated or pooled.
func (e *Executor) candidates(fr *predicate.Frame, slot int, opts Options) (out crystal.Block, fromPool bool, err error) {
	rel := fr.Rels[slot]
	base := e.partitionOf(fr, slot, opts)
	basePooled := opts.Dirty != nil && len(fr.Vars) == 1
	if basePooled {
		if base, err = dirtyOnly(base, opts.Dirty[rel.Schema.Name]); err != nil {
			return out, false, err
		}
	}
	// Every filter that is an id compare (null checks, and constant = / !=)
	// runs over its interned column; the rest (ordered constant compares)
	// evaluate per survivor. Null checks read raw data; constant compares
	// read through the value view, so shadowed tuples re-evaluate per tuple
	// (keep).
	var fasts []idFilter
	var slows []*predicate.Compiled
	for _, p := range fr.X {
		if p.TSlot != slot || (p.Kind != predicate.KConst && p.Kind != predicate.KNull && p.Kind != predicate.KNotNull) {
			continue
		}
		var col *crystal.Column
		if p.Kind != predicate.KConst || p.Op == predicate.Eq || p.Op == predicate.Neq {
			col = e.internedCol(rel, p.A)
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
	out, err = e.candidatesVec(fr, slot, base, fasts, slows)
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

// execPlan is the chosen driver for the first two slots: the (t, s)
// pairs of their pushdown candidate lists that a hash join or LSH
// blocking yields, as pool scratch released after the run. Nil pairs
// means no driver: the binder nests over every slot.
type execPlan struct {
	slot1, slot2 int
	pairs        [][2]*data.Tuple
	// covered is the predicate certified by the driver (a join equality),
	// which the binder does not re-evaluate.
	covered *predicate.Compiled
}

// plan inspects the rule and builds pair candidates via hash join or LSH
// blocking when profitable.
func (e *Executor) plan(fr *predicate.Frame, cands []crystal.Block, opts Options) (execPlan, error) {
	var pl execPlan
	if len(fr.Vars) < 2 {
		return pl, nil
	}
	// Prefer an equality join between two distinct variables.
	for _, p := range fr.X {
		if p.Kind == predicate.KAttr && p.Op == predicate.Eq && p.T != p.S && p.TSlot >= 0 && p.SSlot >= 0 {
			pairs, err := e.hashJoin(fr, p, opts, cands[p.TSlot], cands[p.SSlot])
			if err != nil {
				return pl, err
			}
			if pairs != nil {
				pl.slot1, pl.slot2, pl.pairs = p.TSlot, p.SSlot, pairs
				pl.covered = p
				return pl, nil
			}
		}
	}
	// Otherwise a blocked ML predicate.
	if opts.UseBlocking {
		for _, p := range fr.X {
			if p.Kind == predicate.KML && p.T != p.S && p.TSlot >= 0 && p.SSlot >= 0 {
				pl.slot1, pl.slot2 = p.TSlot, p.SSlot
				// Not covered: the model still verifies each candidate.
				pl.pairs = e.blockPairs(fr, p, opts, cands[p.TSlot], cands[p.SSlot])
				return pl, nil
			}
		}
	}
	return pl, nil
}

// hashJoin builds (t, s) pairs with t.A = s.B from the two slots'
// pushdown candidate lists, t-major with s in candidate order, by
// enumerating colB's posting lists (postingJoin, vector.go), keyed also
// on the rule's other equalities between the two slots (joinKeys), and
// dropping the pairs on which an equality P0 between them holds
// (consCols). The pairs are pool scratch; nil means the schema does not
// resolve the join.
func (e *Executor) hashJoin(fr *predicate.Frame, p *predicate.Compiled, opts Options,
	tuplesT, tuplesS crystal.Block) ([][2]*data.Tuple, error) {
	if p.ACol < 0 || p.BCol < 0 {
		return nil, nil
	}
	relT, relS := fr.Rels[p.TSlot], fr.Rels[p.SSlot]
	colA := e.internedCol(relT, p.A)
	colB := e.internedCol(relS, p.B)
	return e.postingJoin(p, e.joinKeys(fr, p), consCols(fr, p), opts, tuplesT, tuplesS, colA, colB, relT, relS)
}

// consCols returns P0's columns oriented from p's t slot to its s slot
// when P0 is an attribute equality between p's two slots, else -1s.
func consCols(fr *predicate.Frame, p *predicate.Compiled) [2]int {
	switch q := fr.P0; {
	case !equates(q):
	case q.TSlot == p.TSlot && q.SSlot == p.SSlot:
		return [2]int{q.ACol, q.BCol}
	case q.TSlot == p.SSlot && q.SSlot == p.TSlot:
		return [2]int{q.BCol, q.ACol}
	}
	return [2]int{-1, -1}
}

// joinKey is an equality of X other than the driver join's between its
// two slots, oriented from the t slot to the s slot: a raw t pairs with a
// raw s only if colT's id of t, translated, is colS's id of s.
type joinKey struct {
	colT, colS *crystal.Column
	trans      []crystal.ValueID // colT id -> colS id; nil when they are one column
}

// joinKeys collects the equalities t.A' = s.B' of X, in either
// orientation, beside the driver p. They stay un-covered, so the binder
// still evaluates each on every pair the join emits: the keys only drop
// pairs it would reject. Collection stops at the first ML predicate of X,
// so no pair the keys drop would have had an ML call evaluated on it
// first.
func (e *Executor) joinKeys(fr *predicate.Frame, p *predicate.Compiled) []joinKey {
	relT, relS := fr.Rels[p.TSlot], fr.Rels[p.SSlot]
	var keys []joinKey
	for _, q := range fr.X {
		if q.IsML() {
			break
		}
		if q == p || q.Kind != predicate.KAttr || q.Op != predicate.Eq || q.ACol < 0 || q.BCol < 0 {
			continue
		}
		var attrT, attrS string
		switch {
		case q.TSlot == p.TSlot && q.SSlot == p.SSlot:
			attrT, attrS = q.A, q.B
		case q.TSlot == p.SSlot && q.SSlot == p.TSlot:
			attrT, attrS = q.B, q.A
		default:
			continue
		}
		k := joinKey{colT: e.internedCol(relT, attrT), colS: e.internedCol(relS, attrS)}
		if relT.Schema.Name != relS.Schema.Name || attrT != attrS {
			k.trans = e.cols.Translation(relT.Schema.Name, attrT, k.colT, relS.Schema.Name, attrS, k.colS)
		}
		keys = append(keys, k)
	}
	return keys
}

// blockPairs builds candidate (t, s) pairs for an ML predicate by LSH
// (filter-and-verify, paper §5.4) from the two slots' pushdown candidate
// lists: it indexes the s candidates by position and probes the index
// with each t candidate, t-major, s in band order (ml.Blocker). The
// index is built per call from the current value view, so no index
// outlives the values it embeds; a same-relation pair (t, t) is skipped
// by the pairs loop. The pairs are pool scratch.
func (e *Executor) blockPairs(fr *predicate.Frame, p *predicate.Compiled, opts Options,
	tuplesT, tuplesS crystal.Block) [][2]*data.Tuple {
	relT, relS := fr.Rels[p.TSlot], fr.Rels[p.SSlot]
	// Reads go through the embedding store when installed: a value vector
	// probed by many rules (or re-probed across rounds) embeds once
	// instead of once per probe.
	embed := func(rel *data.Relation, t *data.Tuple, cols []int) ml.Vector {
		return e.embeds.Embed(e.env.Values(rel, t, cols))
	}
	dirtyT, dirtyS := opts.Dirty[relT.Schema.Name], opts.Dirty[relS.Schema.Name]
	b := ml.NewBlocker(e.lsh)
	for pos, s := range tuplesS.Tuples {
		b.Add(pos, embed(relS, s, p.BsCols))
	}
	out := getPairBuf()
	for _, t := range tuplesT.Tuples {
		for _, pos := range b.CandidatesOf(embed(relT, t, p.AsCols), -1) {
			s := tuplesS.Tuples[pos]
			// Under a dirty filter, at least one of the two must be dirty.
			if opts.Dirty == nil || dirtyT[t.TID] || dirtyS[s.TID] {
				out = append(out, [2]*data.Tuple{t, s})
			}
		}
	}
	return out
}

// partitionOf is the block slot ranges over: its variable's RestrictVar
// block, or the whole relation as the cache's one block of it.
func (e *Executor) partitionOf(fr *predicate.Frame, slot int, opts Options) crystal.Block {
	if part, ok := opts.RestrictVar[fr.Vars[slot]]; ok {
		return part
	}
	return e.cols.Blocks(fr.Rels[slot], 1)[0]
}

// probeJoin, during recursive binding, returns a filtered candidate list
// for level lv's slot when an equality predicate links an already-bound
// slot to it (lv.probes, in X order; one whose bound value is null is
// skipped). It selects from the slot's constant-pushdown candidate list
// the way a constant equality does (postingSelect), with the bound value
// as the constant: the free column's posting list of its id intersected
// with the candidate TIDs, and the shadowed candidates evaluating the
// equality itself through h. So tuples already eliminated by
// single-variable predicates are never re-enumerated. probed is false
// when no equality applies; otherwise list is pool scratch the caller
// must release.
func (e *Executor) probeJoin(fr *predicate.Frame, lv *level, h *predicate.Valuation,
	cands crystal.Block) (list []*data.Tuple, probed bool, err error) {
	for _, pr := range lv.probes {
		v := e.env.Value(fr.Rels[pr.boundSlot], h.Tuples[pr.boundSlot], pr.boundCol)
		if v.IsNull() {
			continue
		}
		rel := fr.Rels[lv.slot]
		col := e.internedCol(rel, pr.freeAttr)
		f := idFilter{p: pr.p, col: col, viewed: true}
		f.nullID, f.hasNull = col.Dict.NullID()
		f.cid, f.hasCID = col.Dict.ID(v)
		tids, pooled, err := tidsOf(cands)
		if err != nil {
			return nil, false, err
		}
		shadowPos := e.shadowedPositions(rel, tids)
		sel, err := e.postingSelect(lv.slot, cands.Tuples, tids, []idFilter{f}, nil, shadowPos, h)
		putPosBuf(shadowPos)
		if pooled {
			putIntBuf(tids)
		}
		if err != nil {
			return nil, false, err
		}
		putIntBuf(sel.TIDs)
		e.reg.Inc("exec.vec.probe_selects")
		return sel.Tuples, true, nil
	}
	return nil, false, nil
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
