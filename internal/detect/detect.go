// Package detect implements Rock's error-detection module (paper §3 and
// §5.3): given a set Σ of REE++s and a dataset D, it catches the errors in
// D as violations of the rules. For data-partitioned parallelism it
// extends the HyperCube partitioning of [41]: the data is divided into
// virtual blocks and each rule gets one work unit per block combination,
// run on the worker pool (internal/cluster), costliest first. A batch
// mode scans all of D; an incremental mode restricts to valuations
// touching changed tuples (ΔD).
package detect

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/rockclean/rock/internal/cluster"
	"github.com/rockclean/rock/internal/crystal"
	"github.com/rockclean/rock/internal/data"
	"github.com/rockclean/rock/internal/exec"
	"github.com/rockclean/rock/internal/ml"
	"github.com/rockclean/rock/internal/obs"
	"github.com/rockclean/rock/internal/predicate"
	"github.com/rockclean/rock/internal/ree"
)

// Error is one detected error: a rule violation with the cells (or the
// duplicate pair) it implicates.
type Error struct {
	RuleID string
	Task   ree.Task
	// Cells are the attribute cells the violation implicates (CR/TD/MI).
	Cells []data.CellRef
	// DupEIDs is the unidentified duplicate pair (ER), lexicographically
	// ordered.
	DupEIDs [2]string
}

// Key returns a deduplication key covering the implicated evidence (not
// the rule), so the same underlying error found by two rules counts once.
func (e *Error) Key() string {
	if e.Task == ree.TaskER {
		return "dup:" + e.DupEIDs[0] + "|" + e.DupEIDs[1]
	}
	ks := make([]string, len(e.Cells))
	for i, c := range e.Cells {
		ks[i] = c.String()
	}
	sort.Strings(ks)
	var b strings.Builder
	b.WriteString("cell:")
	for _, k := range ks {
		b.WriteString(k)
		b.WriteByte(';')
	}
	return b.String()
}

// Options tunes a detection run.
type Options struct {
	// Workers is the worker-pool size n (paper Figure 4(h)): that many
	// goroutines drain the detection units, and the data is partitioned
	// into that many blocks, the partition the chase plans over too.
	Workers int
	// UseBlocking enables LSH blocking for ML predicates.
	UseBlocking bool
	// Pred, when set, is a predication layer shared with later pipeline
	// phases: detection's ML calls fill its content-keyed prediction
	// cache, so the chase serves the same (model, pair) scores as hits
	// instead of recomputing them (paper §5.4, "ML predication is
	// precomputed"), and its value-keyed embedding store serves the
	// blocking vectors of both phases. New re-registers every model in
	// env.Models wrapped in the layer.
	Pred *ml.Predication
	// Obs receives the detection phase's metrics and events under the
	// "detect.*" prefix (units, wall clock, per-node counts) and
	// the executor's "exec.*" counters. Nil records nothing.
	Obs *obs.Registry
	// Drain is handed unchanged to the detection drain: the retry policy
	// for panicking units (the drain's one retry policy; failures land on
	// UnitErrors) and, in tests, fault injection.
	Drain cluster.Options
	// Span, when non-nil, parents the detection phase span (rock threads
	// its root "clean" span here). Observed only while the registry has
	// spans enabled; tracing never changes detection results.
	Span *obs.Span
}

// DefaultOptions is Rock's shipped configuration.
func DefaultOptions() Options {
	return Options{Workers: 4, UseBlocking: true}
}

// Detector detects violations of a rule set over a database.
type Detector struct {
	env   *predicate.Env
	rules []*ree.Rule
	opts  Options
	// ex is shared by every work unit of every rule (exec.Executor is safe
	// for concurrent use), and with it the column cache and the embedding
	// store.
	ex *exec.Executor
	// failed holds the last run's units that exhausted their retries or
	// lost their node.
	failed []cluster.UnitError
}

// New creates a detector.
func New(env *predicate.Env, rules []*ree.Rule, opts Options) *Detector {
	if opts.Workers < 1 {
		opts.Workers = 1
	}
	d := &Detector{env: env, rules: rules, opts: opts, ex: exec.New(env)}
	d.ex.SetObs(opts.Obs)
	// LSH blocking embeds each value vector once instead of once per
	// rule per unit. The store is keyed by value, so the layer's one
	// serves detection and the chase alike; without a layer the detector
	// keeps a store of its own.
	if opts.Pred == nil {
		d.ex.SetEmbedStore(ml.NewEmbedStore(0))
		return d
	}
	d.ex.SetEmbedStore(opts.Pred.Embeds)
	opts.Pred.WrapAll(env.Models)
	return d
}

// UnitErrors lists the work units of the last run that exhausted their
// retries or lost their node; a run with any is partial.
func (d *Detector) UnitErrors() []cluster.UnitError { return d.failed }

// Detect runs batch detection over the whole database and returns the
// deduplicated errors.
func (d *Detector) Detect() ([]*Error, error) {
	errs, _, err := d.DetectCtx(context.Background())
	return errs, err
}

// DetectCtx is Detect under a cancellation context. On cancel/deadline it
// degrades gracefully: the errors found so far are returned with
// partial=true and a nil error.
func (d *Detector) DetectCtx(ctx context.Context) (errs []*Error, partial bool, err error) {
	return d.runCtx(ctx, nil)
}

// DetectIncrementalCtx runs incremental detection: only violations
// involving at least one dirty tuple are found (paper §3, "incrementally
// detects errors in response to updates"). dirty maps relation name to
// changed TIDs. The env's columns need nothing from the caller: one
// stamped before the caller's writes is rebuilt on its next read.
// Cancellation degrades gracefully, as in DetectCtx.
func (d *Detector) DetectIncrementalCtx(ctx context.Context, dirty map[string]map[int]bool) ([]*Error, bool, error) {
	return d.runCtx(ctx, dirty)
}

func (d *Detector) runCtx(ctx context.Context, dirty map[string]map[int]bool) ([]*Error, bool, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	phaseName := "detect"
	if dirty != nil {
		phaseName = "detect.incremental"
	}
	phase := d.opts.Obs.StartSpan(phaseName, d.opts.Span)
	defer phase.End()
	found, partial, err := d.violations(ctx, dirty, phase)
	if err != nil {
		return nil, partial, err
	}
	// The tail costs what the enumeration produced: O(E log E) for E
	// violations, each keyed once.
	attributed := attributeCulprits(found.errs, found.keys, CulpritScoreFn(d.env.DB))
	sort.Sort(attributed)
	out := attributed.errs
	phase.SetN(int64(len(out)))
	d.opts.Obs.Add("detect.errors.found", uint64(len(out)))
	d.opts.Obs.Add("detect.wall_ns", uint64(time.Since(start)))
	if d.opts.Pred != nil {
		d.opts.Pred.PublishTo(d.opts.Obs)
	}
	return out, partial, nil
}

// violations enumerates the rule violations (over the dirty tuples only,
// when dirty is non-nil) as HyperCube work units on the cluster and
// returns them in plan order, each Key once.
func (d *Detector) violations(ctx context.Context, dirty map[string]map[int]bool, phase *obs.Span) (*errorSet, bool, error) {
	cl := cluster.New(d.opts.Workers)
	cl.SetObs(d.opts.Obs, "detect")

	// Plan: one unit per (rule, block combination), in (rule, block)
	// order, each with a result slot of its own, assigned whole when the
	// unit completes — workers share nothing, and the merge below reads
	// the slots back in plan order, so the result does not depend on
	// which worker ran what, or when.
	blocks := d.env.Columns.Partition(d.env.DB, d.opts.Workers)
	type result struct {
		errs []*Error
		err  error
	}
	var all []*crystal.WorkUnit
	var results []*result
	for _, r := range d.rules {
		if err := r.Validate(d.env.DB); err != nil {
			return nil, false, err
		}
		if len(r.Atoms) == 0 {
			return nil, false, fmt.Errorf("detect: rule %s has no tuple atoms", r.ID)
		}
		for _, b := range crystal.UnitsFor(exec.PlanAtoms(r), blocks) {
			res := &result{}
			results = append(results, res)
			all = append(all, &crystal.WorkUnit{
				ID:      len(all),
				RuleID:  r.ID,
				Part:    b.Part,
				EstCost: b.EstCost,
				Run:     func(node string) { res.errs, res.err = d.runUnit(ctx, r, b, dirty, node, phase) },
			})
		}
	}
	d.opts.Obs.Add("detect.units", uint64(len(all)))
	st := cl.DrainWithStats(ctx, all, d.opts.Drain)
	// A cancelled drain (or permanently failed units) leaves detection
	// incomplete but sound: every error found so far stands.
	d.failed = st.Failed
	partial := st.Cancelled || len(st.Failed) > 0
	// Merge in plan order: the first rule (and block) to find an error
	// reports it, so RuleID is as reproducible as the key set.
	merged := &errorSet{}
	for _, res := range results {
		// A unit cut short by cancellation keeps what it found.
		cut := errors.Is(res.err, context.Canceled) || errors.Is(res.err, context.DeadlineExceeded)
		if res.err != nil && !cut {
			d.opts.Obs.Inc("detect.errors.run")
			return nil, partial, res.err
		}
		partial = partial || cut
		for _, e := range res.errs {
			merged.add(e, e.Key())
		}
	}
	return merged, partial, nil
}

// runUnit is the body of one detection work unit: run the local executor
// for rule r over the unit's blocks until done or ctx is cancelled, and
// return the errors its violations implicate with the first error.
func (d *Detector) runUnit(ctx context.Context, r *ree.Rule, b crystal.BlockUnit, dirty map[string]map[int]bool, node string, phase *obs.Span) ([]*Error, error) {
	reg := d.opts.Obs
	unitSpan := reg.StartSpan("unit", phase)
	unitSpan.SetRule(r.ID)
	unitSpan.SetNode(node)
	unitSpan.SetDetail(b.Part)
	defer unitSpan.End()
	unitStart := time.Now()
	var local []*Error
	var evalErr error
	st, err := d.ex.Run(r, exec.Options{
		Ctx:         ctx,
		UseBlocking: d.opts.UseBlocking,
		Dirty:       dirty,
		RestrictVar: b.Restrict,
		Span:        unitSpan,
	}, func(h *predicate.Valuation) bool {
		var ok bool
		if ok, evalErr = h.Frame.P0.Eval(d.env, h); evalErr != nil {
			return false
		}
		if !ok {
			local = append(local, Implicate(r, h))
		}
		return true
	})
	unitSpan.SetN(int64(st.Valuations))
	reg.Inc("detect.rule." + r.ID + ".units")
	reg.Add("detect.rule."+r.ID+".wall_ns", uint64(time.Since(unitStart)))
	if err != nil {
		reg.Inc("detect.rule." + r.ID + ".errors")
		return local, err
	}
	return local, evalErr
}

// CulpritScoreFn builds the culprit tie-break score over one database
// (shared with the SQL-engine baselines, which run the same rules): the
// cell's column value frequency plus a character-bigram plausibility term
// in [0, 1). Typos and corrupted numbers are rare in their columns and
// contain bigrams the column has never seen elsewhere, so lower scores
// mark the likelier culprit. A column's statistics are built on the first
// score asked of it.
func CulpritScoreFn(db *data.Database) func(data.CellRef) float64 {
	type colKey struct{ rel, attr string }
	type colStats struct {
		freq      map[data.Canon]int
		bigrams   map[string]int
		total     int
		maxBigram int
	}
	cache := map[colKey]*colStats{}
	// stats is asked only of a cell rel holds, so c.Attr is in its schema.
	stats := func(rel *data.Relation, c data.CellRef) *colStats {
		k := colKey{c.Rel, c.Attr}
		if st := cache[k]; st != nil {
			return st
		}
		ai := rel.Schema.Index(c.Attr)
		st := &colStats{freq: map[data.Canon]int{}, bigrams: map[string]int{}}
		for _, t := range rel.Tuples {
			v := t.Values[ai]
			st.freq[v.Canon()]++
			s := v.String()
			for i := 0; i+2 <= len(s); i++ {
				st.bigrams[s[i:i+2]]++
				st.total++
			}
		}
		for _, cnt := range st.bigrams {
			st.maxBigram = max(st.maxBigram, cnt)
		}
		cache[k] = st
		return st
	}
	return func(c data.CellRef) float64 {
		rel := db.Rel(c.Rel)
		if rel == nil {
			return 0
		}
		v, ok := rel.Value(c.TID, c.Attr)
		if !ok {
			return 0
		}
		if v.IsNull() {
			// A null participating in a violation is the error by
			// definition (the MI case): absolute culprit priority.
			return -1
		}
		st := stats(rel, c)
		score := float64(st.freq[v.Canon()])
		// Bigram plausibility in [0, 1): the mean relative frequency of the
		// value's bigrams within its column.
		s := v.String()
		if st.total > 0 && len(s) >= 2 {
			sum, n := 0.0, 0.0
			for i := 0; i+2 <= len(s); i++ {
				sum += float64(st.bigrams[s[i:i+2]]) / float64(st.maxBigram)
				n++
			}
			if n > 0 {
				score += 0.99 * (sum / n)
			}
		}
		return score
	}
}

// AttributeCulpritsFreq refines two-cell violations into single-cell errors
// by greedy vertex cover over the violation graph: a truly erroneous cell
// conflicts with every clean witness in its group, so it covers many
// violations, while each clean cell conflicts only with the few erroneous
// ones. Repeatedly flagging the highest-degree cell until all two-cell
// violations are covered pins the blame precisely (the standard
// hypergraph-cover heuristic for dependency violations). Degree ties —
// e.g. a group with exactly one clean and one dirty member — are broken by
// value rarity when freq is supplied: the cell whose value is rarer in its
// column is the culprit; remaining ties go to the smaller cell key. A cell
// freq scores below zero (a null) is a culprit outright. One-cell and ER
// errors pass through unchanged, ahead of the culprits, and the result
// holds each Key once — a culprit that a one-cell rule already reported is
// the same error.
//
// freq is called once per distinct cell and the cover is driven by a heap
// over maintained degrees: O(E log E + K log K) for E violations over K
// cells.
func AttributeCulpritsFreq(errs []*Error, freq func(data.CellRef) float64) []*Error {
	return attributeCulprits(errs, nil, freq).errs
}

// attributeCulprits is AttributeCulpritsFreq returning the errors together
// with their keys. keys, when non-nil, holds errs[i].Key() at i, so the
// errors passed through are not keyed a second time.
func attributeCulprits(errs []*Error, keys []string, freq func(data.CellRef) float64) *errorSet {
	out := &errorSet{}
	// The violation graph: its vertices are the cells of the two-cell
	// violations, ranked in key order so that index order is key order.
	type cell struct {
		ref data.CellRef
		key string
		src *Error // the first violation to implicate the cell: its rule takes the blame
	}
	var cells []cell
	var graph []*Error
	rank := map[data.CellRef]int{}
	for i, e := range errs {
		if e.Task == ree.TaskER || len(e.Cells) != 2 {
			if keys != nil {
				out.add(e, keys[i])
			} else {
				out.add(e, e.Key())
			}
			continue
		}
		graph = append(graph, e)
		for _, c := range e.Cells {
			if _, ok := rank[c]; !ok {
				rank[c] = len(cells)
				cells = append(cells, cell{ref: c, key: c.String(), src: e})
			}
		}
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i].key < cells[j].key })
	for i, c := range cells {
		rank[c.ref] = i
	}
	// Per cell: the edges at it (a self-edge twice), how many of them are
	// uncovered, and its score.
	ends := make([][2]int, len(graph))
	adj := make([][]int, len(cells))
	deg := make([]int, len(cells))
	for i, e := range graph {
		ends[i] = [2]int{rank[e.Cells[0]], rank[e.Cells[1]]}
		for _, c := range ends[i] {
			adj[c] = append(adj[c], i)
			deg[c]++
		}
	}
	score := make([]float64, len(cells))
	if freq != nil {
		for i, c := range cells {
			score[i] = freq(c.ref)
		}
	}
	// An entry is live while its degree is the cell's current one; a cell
	// whose degree drops gets a new entry and the old one is skipped when
	// it surfaces.
	h := make(culpritHeap, 0, len(cells))
	for c, d := range deg {
		h = append(h, culpritEntry{deg: d, score: score[c], cell: c})
	}
	heap.Init(&h)
	covered := make([]bool, len(ends))
	remaining := len(ends)
	blame := func(c int) {
		for _, i := range adj[c] {
			if covered[i] {
				continue
			}
			covered[i] = true
			remaining--
			for _, n := range ends[i] {
				deg[n]--
				if n != c && deg[n] > 0 {
					heap.Push(&h, culpritEntry{deg: deg[n], score: score[n], cell: n})
				}
			}
		}
		src := cells[c].src
		culprit := &Error{RuleID: src.RuleID, Task: src.Task, Cells: []data.CellRef{cells[c].ref}}
		out.add(culprit, culprit.Key())
	}
	// Null cells are culprits outright, whether or not an earlier one
	// already covered their violations.
	for c := range cells {
		if score[c] < 0 {
			blame(c)
		}
	}
	for remaining > 0 {
		if top := heap.Pop(&h).(culpritEntry); top.deg == deg[top.cell] {
			blame(top.cell)
		}
	}
	return out
}

// culpritEntry is a cell as the cover saw it when the entry was pushed.
type culpritEntry struct {
	deg   int // uncovered violations at the cell
	score float64
	cell  int // rank in key order
}

// culpritHeap yields the next culprit: the most uncovered violations, then
// the lower score, then the smaller key.
type culpritHeap []culpritEntry

func (h culpritHeap) Len() int { return len(h) }
func (h culpritHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if a.deg != b.deg {
		return a.deg > b.deg
	}
	if a.score != b.score {
		return a.score < b.score
	}
	return a.cell < b.cell
}
func (h culpritHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *culpritHeap) Push(x any)   { *h = append(*h, x.(culpritEntry)) }
func (h *culpritHeap) Pop() any {
	old := *h
	top := old[len(old)-1]
	*h = old[:len(old)-1]
	return top
}

// errorSet holds the first error of every Key, in arrival order, in step
// with the keys: a key is built once, however often it is compared.
// Sorting orders the set by key.
type errorSet struct {
	errs []*Error
	keys []string
	seen map[string]bool
}

// add appends e, whose Key is key, unless the set holds that key already.
func (s *errorSet) add(e *Error, key string) {
	if s.seen == nil {
		s.seen = map[string]bool{}
	}
	if !s.seen[key] {
		s.seen[key] = true
		s.errs = append(s.errs, e)
		s.keys = append(s.keys, key)
	}
}

func (s *errorSet) Len() int           { return len(s.errs) }
func (s *errorSet) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s *errorSet) Swap(i, j int) {
	s.errs[i], s.errs[j] = s.errs[j], s.errs[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}

// Implicate derives the error evidence from a violation of r under h
// (which cells are wrong, or which pair is an uncaught duplicate).
func Implicate(r *ree.Rule, h *predicate.Valuation) *Error {
	p := h.Frame.P0
	e := &Error{RuleID: r.ID, Task: r.TaskOf()}
	cell := func(slot int, attr string) {
		if t := h.Tuple(slot); t != nil {
			e.Cells = append(e.Cells, data.CellRef{Rel: h.Rel(slot), TID: t.TID, Attr: attr})
		}
	}
	switch p.Kind {
	case predicate.KEID:
		a, b := h.Tuples[p.TSlot].EID, h.Tuples[p.SSlot].EID
		if a > b {
			a, b = b, a
		}
		e.DupEIDs = [2]string{a, b}
	case predicate.KConst:
		cell(p.TSlot, p.A)
	case predicate.KAttr:
		cell(p.TSlot, p.A)
		cell(p.SSlot, p.B)
	case predicate.KTemporal, predicate.KRank:
		cell(p.TSlot, p.A)
		cell(p.SSlot, p.A)
	case predicate.KVal, predicate.KML:
		cell(p.TSlot, p.A)
	case predicate.KPredict, predicate.KCorr:
		cell(p.TSlot, p.B)
	}
	return e
}
