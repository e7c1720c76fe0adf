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
	"context"
	"errors"
	"fmt"
	"slices"
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
	results, partial, err := d.violations(ctx, dirty, phase)
	if err != nil {
		return nil, partial, err
	}
	out, cut, err := tail(results, d.env.DB)
	if err != nil {
		d.opts.Obs.Inc("detect.errors.run")
		return nil, partial || cut, err
	}
	phase.SetN(int64(len(out)))
	d.opts.Obs.Add("detect.errors.found", uint64(len(out)))
	d.opts.Obs.Add("detect.wall_ns", uint64(time.Since(start)))
	if d.opts.Pred != nil {
		d.opts.Pred.PublishTo(d.opts.Obs)
	}
	return out, partial || cut, nil
}

// violations enumerates the rule violations (over the dirty tuples only,
// when dirty is non-nil) as HyperCube work units on the cluster and
// returns the units' result slots in plan order.
func (d *Detector) violations(ctx context.Context, dirty map[string]map[int]bool, phase *obs.Span) ([]*unitResult, bool, error) {
	cl := cluster.New(d.opts.Workers)
	cl.SetObs(d.opts.Obs, "detect")

	// Plan: one unit per (rule, block combination), in (rule, block)
	// order, each with a result slot of its own, assigned whole when the
	// unit completes — workers share nothing, and the merge reads the
	// slots back in plan order, so the result does not depend on which
	// worker ran what, or when.
	blocks := d.env.Columns.Partition(d.env.DB, d.opts.Workers)
	ids := newCellIDs(d.env.DB)
	var all []*crystal.WorkUnit
	var results []*unitResult
	for _, r := range d.rules {
		if err := r.Validate(d.env.DB); err != nil {
			return nil, false, err
		}
		if len(r.Atoms) == 0 {
			return nil, false, fmt.Errorf("detect: rule %s has no tuple atoms", r.ID)
		}
		for _, b := range crystal.UnitsFor(exec.PlanAtoms(r), blocks) {
			res := &unitResult{}
			results = append(results, res)
			all = append(all, &crystal.WorkUnit{
				ID:      len(all),
				RuleID:  r.ID,
				Part:    b.Part,
				EstCost: b.EstCost,
				Run:     func(node string) { *res = d.runUnit(ctx, r, b, dirty, node, phase, ids) },
			})
		}
	}
	d.opts.Obs.Add("detect.units", uint64(len(all)))
	st := cl.DrainWithStats(ctx, all, d.opts.Drain)
	// A cancelled drain (or permanently failed units) leaves detection
	// incomplete but sound: every error found so far stands.
	d.failed = st.Failed
	return results, st.Cancelled || len(st.Failed) > 0, nil
}

// unitResult is one detection unit's slot: its violations and their keys,
// index for index, and the error that stopped it.
type unitResult struct {
	errs []*Error
	keys []vkey
	err  error
}

// tail is detection's serial tail over the units' slots: the merge, in
// plan order — the first rule (and block) to find an error reports it, so
// RuleID is as reproducible as the key set — on pointer-free keys; the
// culprit cover; and the key order of what it returns. Strings are built
// for ER and wider errors, for the cells a tie-break compares and for the
// errors returned, never per violation. A unit cut short by cancellation
// keeps what it found and makes the result partial; any other unit error
// is returned.
func tail(results []*unitResult, db *data.Database) ([]*Error, bool, error) {
	n := 0
	for _, res := range results {
		n += len(res.errs)
	}
	merged := newErrorSet(n)
	partial := false
	for _, res := range results {
		cut := errors.Is(res.err, context.Canceled) || errors.Is(res.err, context.DeadlineExceeded)
		if res.err != nil && !cut {
			return nil, partial, res.err
		}
		partial = partial || cut
		for i, e := range res.errs {
			merged.add(e, res.keys[i])
		}
	}
	null := func(c data.CellRef) bool {
		v, ok := db.Rel(c.Rel).Value(c.TID, c.Attr) // c has an id, so its relation exists
		return ok && v.IsNull()
	}
	out := attributeCulprits(merged.errs, merged.keys, null, CulpritScoreFn(db)).errs
	sortByKey(out)
	return out, partial, nil
}

// runUnit is the body of one detection work unit: run the local executor
// for rule r over the unit's blocks until done or ctx is cancelled, and
// return the errors its violations implicate, keyed, with the first error.
func (d *Detector) runUnit(ctx context.Context, r *ree.Rule, b crystal.BlockUnit, dirty map[string]map[int]bool, node string, phase *obs.Span, ids cellIDs) unitResult {
	reg := d.opts.Obs
	unitSpan := reg.StartSpan("unit", phase)
	unitSpan.SetRule(r.ID)
	unitSpan.SetNode(node)
	unitSpan.SetDetail(b.Part)
	defer unitSpan.End()
	unitStart := time.Now()
	var local unitResult
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
			e := Implicate(r, h)
			local.errs = append(local.errs, e)
			local.keys = append(local.keys, keyOf(e, ids.id))
		}
		return true
	})
	unitSpan.SetN(int64(st.Valuations))
	reg.Inc("detect.rule." + r.ID + ".units")
	reg.Add("detect.rule."+r.ID+".wall_ns", uint64(time.Since(unitStart)))
	if local.err = evalErr; err != nil {
		reg.Inc("detect.rule." + r.ID + ".errors")
		local.err = err
	}
	return local
}

// CulpritScoreFn builds the culprit tie-break score over one database
// (shared with the SQL-engine baselines, which run the same rules): the
// cell's column value frequency plus a character-bigram plausibility term
// in [0, 1). Typos and corrupted numbers are rare in their columns and
// contain bigrams the column has never seen elsewhere, so lower scores
// mark the likelier culprit. A column's statistics are built on the first
// score asked of it, each distinct value's string once, the bigrams
// counted in a table paged by their first byte.
func CulpritScoreFn(db *data.Database) func(data.CellRef) float64 {
	type colKey struct{ rel, attr string }
	type colStats struct {
		freq      map[data.Canon]int
		bigrams   [256]*[256]int
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
		counts := map[data.Value]int{}
		for _, t := range rel.Tuples {
			counts[t.Values[ai]]++
		}
		st := &colStats{freq: make(map[data.Canon]int, len(counts))}
		for v, n := range counts {
			st.freq[v.Canon()] += n
			s := v.String()
			for i := 0; i+2 <= len(s); i++ {
				if st.bigrams[s[i]] == nil {
					st.bigrams[s[i]] = new([256]int)
				}
				st.bigrams[s[i]][s[i+1]] += n
				st.maxBigram = max(st.maxBigram, st.bigrams[s[i]][s[i+1]])
				st.total += n
			}
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
				if page := st.bigrams[s[i]]; page != nil {
					sum += float64(page[s[i+1]]) / float64(st.maxBigram)
				}
				n++
			}
			score += 0.99 * (sum / n)
		}
		return score
	}
}

// cellIDs packs a database's cells pointer-free for one detection run:
// numbered from 1 relation by relation in name order, attribute by
// attribute, TID by TID. Safe for concurrent use.
type cellIDs map[string]relCells

// relCells is where a relation's cells start and its NextTID then.
type relCells struct {
	rel  *data.Relation
	next int
	base uint64
}

func newCellIDs(db *data.Database) cellIDs {
	ids, base := cellIDs{}, uint64(1)
	for _, name := range db.Names() {
		rel := db.Rel(name)
		ids[name] = relCells{rel, rel.NextTID(), base}
		base += uint64(len(rel.Schema.Attrs) * rel.NextTID())
	}
	return ids
}

// id numbers c; false for a cell outside the database.
func (ids cellIDs) id(c data.CellRef) (uint64, bool) {
	r, ok := ids[c.Rel]
	if !ok || c.TID < 0 || c.TID >= r.next {
		return 0, false
	}
	a := r.rel.Schema.Index(c.Attr)
	return r.base + uint64(a*r.next+c.TID), a >= 0
}

// vkey is a violation's deduplication key: the ids of its one or two
// cells, in cell order, 0 for a missing second. An ER error, one of no
// cells or of more than two, or one whose cell has no id, has the zero
// vkey and is keyed by Key instead.
type vkey [2]uint64

// keyOf keys e by the cell numbering id.
func keyOf(e *Error, id func(data.CellRef) (uint64, bool)) vkey {
	var k vkey
	if e.Task == ree.TaskER || len(e.Cells) == 0 || len(e.Cells) > 2 {
		return k
	}
	for i, c := range e.Cells {
		var ok bool
		if k[i], ok = id(c); !ok {
			return vkey{}
		}
	}
	return k
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
	ids := map[data.CellRef]uint64{}
	id := func(c data.CellRef) (uint64, bool) {
		if _, ok := ids[c]; !ok {
			ids[c] = uint64(len(ids) + 1)
		}
		return ids[c], true
	}
	keys := make([]vkey, len(errs))
	for i, e := range errs {
		keys[i] = keyOf(e, id)
	}
	scores := map[data.CellRef]float64{}
	null := func(c data.CellRef) bool {
		if freq != nil {
			scores[c] = freq(c)
		}
		return scores[c] < 0
	}
	return attributeCulprits(errs, keys, null, func(c data.CellRef) float64 { return scores[c] }).errs
}

// attributeCulprits is AttributeCulpritsFreq over errors keyed by keys
// (keys[i] is errs[i]'s), with the score split in two: null marks a
// culprit outright and is asked of every cell; score breaks degree ties
// and is asked, once, only of the cells still uncovered once the nulls
// are blamed — a cell left at degree 0 never comes off the heap while a
// violation is uncovered.
func attributeCulprits(errs []*Error, keys []vkey, null func(data.CellRef) bool, score func(data.CellRef) float64) *errorSet {
	out := newErrorSet(0)
	// The violation graph: its vertices are the cells of the two-cell
	// violations, numbered in order of appearance.
	var cells []cell
	ends := make([][2]int, 0, len(errs))
	rank := map[uint64]int{}
	vertex := func(id uint64, ref data.CellRef, src *Error) int {
		c, ok := rank[id]
		if !ok {
			c = len(cells)
			rank[id] = c
			cells = append(cells, cell{id: id, ref: ref, src: src})
		}
		return c
	}
	for i, e := range errs {
		if k := keys[i]; k[1] == 0 {
			out.add(e, k)
		} else {
			ends = append(ends, [2]int{vertex(k[0], e.Cells[0], e), vertex(k[1], e.Cells[1], e)})
		}
	}
	// Per cell: the edges at it (a self-edge twice), adj[at[c]:at[c+1]],
	// and how many of them are uncovered.
	deg := make([]int, len(cells))
	for _, en := range ends {
		deg[en[0]]++
		deg[en[1]]++
	}
	at := make([]int, len(cells)+1)
	for c, d := range deg {
		at[c+1] = at[c] + d
	}
	adj, next := make([]int, at[len(cells)]), slices.Clone(at)
	for i, en := range ends {
		for _, c := range en {
			adj[next[c]] = i
			next[c]++
		}
	}
	// An entry is live while its degree is the cell's current one; a cell
	// whose degree drops gets a new entry and the old one is skipped when
	// it surfaces.
	h := &culpritHeap{cells: cells, names: make([]string, len(cells))}
	scores := make([]float64, len(cells))
	covered := make([]bool, len(ends))
	remaining := len(ends)
	blame := func(c int) {
		for _, i := range adj[at[c]:at[c+1]] {
			if covered[i] {
				continue
			}
			covered[i] = true
			remaining--
			for _, n := range ends[i] {
				deg[n]--
				if h.entries != nil && n != c && deg[n] > 0 {
					h.push(culpritEntry{deg: deg[n], score: scores[n], cell: n})
				}
			}
		}
		src := cells[c].src
		out.add(&Error{RuleID: src.RuleID, Task: src.Task, Cells: []data.CellRef{cells[c].ref}}, vkey{cells[c].id})
	}
	// Null cells are culprits outright, in key order, whether or not an
	// earlier one already covered their violations.
	var nulls []int
	for c := range cells {
		if null(cells[c].ref) {
			nulls = append(nulls, c)
		}
	}
	sort.Slice(nulls, func(i, j int) bool { return h.before(nulls[i], nulls[j]) })
	for _, c := range nulls {
		blame(c)
	}
	h.entries = make([]culpritEntry, 0, len(cells))
	for c, d := range deg {
		if d > 0 {
			scores[c] = score(cells[c].ref)
			h.entries = append(h.entries, culpritEntry{deg: d, score: scores[c], cell: c})
		}
	}
	for i := len(h.entries)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	for remaining > 0 {
		if top := h.pop(); top.deg == deg[top.cell] {
			blame(top.cell)
		}
	}
	return out
}

// cell is a vertex of the violation graph: a cell, its id and the first
// violation to implicate it, whose rule takes the blame.
type cell struct {
	id  uint64
	ref data.CellRef
	src *Error
}

// culpritEntry is a cell as the cover saw it when the entry was pushed.
type culpritEntry struct {
	deg   int // uncovered violations at the cell
	score float64
	cell  int
}

// culpritHeap yields the next culprit: the most uncovered violations, then
// the lower score, then the smaller key. A cell's key (its String) is
// built the first time a tie compares it.
type culpritHeap struct {
	entries []culpritEntry
	cells   []cell
	names   []string
}

func (h *culpritHeap) less(i, j int) bool {
	a, b := h.entries[i], h.entries[j]
	if a.deg != b.deg {
		return a.deg > b.deg
	}
	if a.score != b.score {
		return a.score < b.score
	}
	return h.before(a.cell, b.cell)
}

// before orders cells by key, and equal keys by number.
func (h *culpritHeap) before(a, b int) bool {
	for _, c := range [2]int{a, b} {
		if h.names[c] == "" {
			h.names[c] = h.cells[c].ref.String()
		}
	}
	if h.names[a] != h.names[b] {
		return h.names[a] < h.names[b]
	}
	return a < b
}

func (h *culpritHeap) push(e culpritEntry) {
	h.entries = append(h.entries, e)
	for i := len(h.entries) - 1; i > 0 && h.less(i, (i-1)/2); i = (i - 1) / 2 {
		h.entries[i], h.entries[(i-1)/2] = h.entries[(i-1)/2], h.entries[i]
	}
}

func (h *culpritHeap) pop() culpritEntry {
	top, n := h.entries[0], len(h.entries)-1
	h.entries[0] = h.entries[n]
	h.entries = h.entries[:n]
	h.down(0)
	return top
}

func (h *culpritHeap) down(i int) {
	for n := len(h.entries); 2*i+1 < n; {
		m := 2*i + 1
		if m+1 < n && h.less(m+1, m) {
			m++
		}
		if !h.less(m, i) {
			return
		}
		h.entries[i], h.entries[m] = h.entries[m], h.entries[i]
		i = m
	}
}

// errorSet holds the first error of every key, in arrival order, in step
// with the keys: an error of one or two cells is looked up by its vkey,
// any other by its Key.
type errorSet struct {
	errs  []*Error
	keys  []vkey
	cells map[vkey]struct{}
	other map[string]struct{}
}

func newErrorSet(n int) *errorSet {
	return &errorSet{errs: make([]*Error, 0, n), keys: make([]vkey, 0, n), cells: make(map[vkey]struct{}, n), other: map[string]struct{}{}}
}

// add appends e, whose vkey is k, unless the set holds its key already.
func (s *errorSet) add(e *Error, k vkey) {
	had := len(s.cells) + len(s.other)
	switch {
	case k == (vkey{}):
		s.other[e.Key()] = struct{}{}
	case k[1] != 0 && k[1] < k[0]:
		s.cells[vkey{k[1], k[0]}] = struct{}{}
	default:
		s.cells[k] = struct{}{}
	}
	if len(s.cells)+len(s.other) > had {
		s.errs = append(s.errs, e)
		s.keys = append(s.keys, k)
	}
}

// sortByKey orders errs by Key, building each key once.
func sortByKey(errs []*Error) {
	type keyed struct {
		key string
		e   *Error
	}
	ks := make([]keyed, len(errs))
	for i, e := range errs {
		ks[i] = keyed{e.Key(), e}
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].key < ks[j].key })
	for i := range ks {
		errs[i] = ks[i].e
	}
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
