package detect

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync/atomic"
	"testing"

	"github.com/rockclean/rock/internal/data"
	"github.com/rockclean/rock/internal/must"
	"github.com/rockclean/rock/internal/predicate"
	"github.com/rockclean/rock/internal/ree"
	"github.com/rockclean/rock/internal/workload"
)

// dirtyTransEnv builds a Trans relation with known injected errors: every
// 10th tuple has the wrong manufactory for its commodity.
func dirtyTransEnv(t *testing.T, n int) (*predicate.Env, *data.Relation, map[string]bool) {
	t.Helper()
	schema := must.Schema("Trans",
		data.Attribute{Name: "com", Type: data.TString},
		data.Attribute{Name: "mfg", Type: data.TString},
	)
	rel := data.NewRelation(schema)
	gold := map[string]bool{}
	for i := 0; i < n; i++ {
		com := fmt.Sprintf("line %d", i%8)
		mfg := fmt.Sprintf("maker %d", i%8)
		if i%10 == 3 {
			mfg = "WRONG"
		}
		tp := rel.Insert(fmt.Sprintf("e%d", i), data.S(com), data.S(mfg))
		if i%10 == 3 {
			gold[data.CellRef{Rel: "Trans", TID: tp.TID, Attr: "mfg"}.String()] = true
		}
	}
	db := data.NewDatabase()
	db.Add(rel)
	return predicate.NewEnv(db), rel, gold
}

func crRule(t *testing.T, env *predicate.Env) *ree.Rule {
	t.Helper()
	r := must.Rule("Trans(t) ^ Trans(s) ^ t.com = s.com -> t.mfg = s.mfg", env.DB)
	r.ID = "phi2"
	return r
}

func TestDetectFindsInjectedErrors(t *testing.T) {
	env, _, gold := dirtyTransEnv(t, 100)
	d := New(env, []*ree.Rule{crRule(t, env)}, DefaultOptions())
	errs, err := d.Detect()
	if err != nil {
		t.Fatal(err)
	}
	if len(errs) == 0 {
		t.Fatal("no errors detected")
	}
	// Every gold cell must be implicated by some detection.
	found := map[string]bool{}
	for _, e := range errs {
		for _, c := range e.Cells {
			found[c.String()] = true
		}
	}
	for g := range gold {
		if !found[g] {
			t.Errorf("missed injected error %s", g)
		}
	}
}

// TestDetectDeterministicAcrossWorkerCounts: the error list — keys, the
// rule each error is attributed to, and their order — is a function of
// rules and data. It does not depend on the worker count (which changes
// the block count), nor, run after run at Workers=8, on which worker
// finished first; and no key appears twice. The application datasets have
// several rules implicating the same cell, which a first-arrival dedup and
// a map-ordered attribution pass used to report differently every run.
func TestDetectDeterministicAcrossWorkerCounts(t *testing.T) {
	cfg := workload.Config{N: 300, Seed: 7}
	cases := []struct {
		name string
		mk   func() (*predicate.Env, []*ree.Rule)
	}{
		{"trans", func() (*predicate.Env, []*ree.Rule) {
			env, _, _ := dirtyTransEnv(t, 80)
			return env, []*ree.Rule{crRule(t, env)}
		}},
		{"logistics", func() (*predicate.Env, []*ree.Rule) { ds := workload.Logistics(cfg); return ds.BuildEnv(), ds.Rules }},
		{"bank", func() (*predicate.Env, []*ree.Rule) { ds := workload.Bank(cfg); return ds.BuildEnv(), ds.Rules }},
		{"sales", func() (*predicate.Env, []*ree.Rule) { ds := workload.Sales(cfg); return ds.BuildEnv(), ds.Rules }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env, rules := tc.mk()
			listFor := func(workers int) []string {
				o := DefaultOptions()
				o.Workers = workers
				errs, err := New(env, rules, o).Detect()
				if err != nil {
					t.Fatal(err)
				}
				out := make([]string, len(errs))
				seen := map[string]bool{}
				for i, e := range errs {
					if seen[e.Key()] {
						t.Errorf("workers=%d: %s reported twice", workers, e.Key())
					}
					seen[e.Key()] = true
					out[i] = e.Key() + " by " + e.RuleID
				}
				return out
			}
			want := listFor(1)
			if len(want) == 0 {
				t.Fatal("nothing detected")
			}
			for _, workers := range []int{4, 9, 8, 8, 8, 8, 8} {
				if got := listFor(workers); !slices.Equal(got, want) {
					t.Fatalf("workers=%d: error list differs from workers=1 (%d vs %d errors)", workers, len(got), len(want))
				}
			}
		})
	}
}

// countdownCtx reports the context cancelled once its Err method has
// been consulted a fixed number of times, so a test can cut a run short
// at a reproducible point without timing.
type countdownCtx struct {
	context.Context
	remaining atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.remaining.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestDetectCancelStopsInsideUnit: a cancelled DetectCtx stops the unit
// it is running, not only the units still pending. At Workers = 1 the
// rule is one unit whose 3 200 violating pairs are its only bindings
// (the other 16 000 or so satisfy P0 and never bind); the countdown
// outlasts every poll the drain makes between units, so only the
// executor's own polls (one per 64 bindings) can end the run early. The
// run is partial, without an error, and keeps the errors found before
// the cut.
func TestDetectCancelStopsInsideUnit(t *testing.T) {
	env, _, _ := dirtyTransEnv(t, 400)
	rules := []*ree.Rule{crRule(t, env)}
	o := DefaultOptions()
	o.Workers = 1
	full, err := New(env, rules, o).Detect()
	if err != nil {
		t.Fatal(err)
	}
	ctx := &countdownCtx{Context: context.Background()}
	ctx.remaining.Store(4)
	errs, partial, err := New(env, rules, o).DetectCtx(ctx)
	if err != nil || !partial {
		t.Fatalf("cancelled detection: partial=%v err=%v, want partial and no error", partial, err)
	}
	if len(errs) == 0 || len(errs) >= len(full) {
		t.Fatalf("cancelled detection found %d errors, want some but fewer than the full run's %d", len(errs), len(full))
	}
}

func TestDetectIncrementalOnlyTouchesDirty(t *testing.T) {
	env, rel, _ := dirtyTransEnv(t, 60)
	d := New(env, []*ree.Rule{crRule(t, env)}, DefaultOptions())
	full, err := d.Detect()
	if err != nil {
		t.Fatal(err)
	}
	// Insert one fresh erroneous tuple and detect incrementally.
	nt := rel.Insert("eNew", data.S("line 0"), data.S("ALSO WRONG"))
	dirty := map[string]map[int]bool{"Trans": {nt.TID: true}}
	inc, _, err := d.DetectIncrementalCtx(context.Background(), dirty)
	if err != nil {
		t.Fatal(err)
	}
	if len(inc) == 0 {
		t.Fatal("incremental detection missed the new error")
	}
	if len(inc) >= len(full) {
		t.Errorf("incremental (%d) should be far smaller than batch (%d)", len(inc), len(full))
	}
	// Every incremental error involves the dirty tuple.
	for _, e := range inc {
		touches := false
		for _, c := range e.Cells {
			if c.TID == nt.TID {
				touches = true
			}
		}
		if !touches {
			t.Errorf("incremental error does not touch dirty tuple: %+v", e)
		}
	}
}

func TestDetectERRule(t *testing.T) {
	schema := must.Schema("Person",
		data.Attribute{Name: "LN", Type: data.TString},
		data.Attribute{Name: "home", Type: data.TString},
	)
	rel := data.NewRelation(schema)
	rel.Insert("p1", data.S("Smith"), data.S("12 Beijing Road"))
	rel.Insert("p2", data.S("Smith"), data.S("12 Beijing Road"))
	rel.Insert("p3", data.S("Jones"), data.S("elsewhere"))
	db := data.NewDatabase()
	db.Add(rel)
	env := predicate.NewEnv(db)
	r := must.Rule("Person(t) ^ Person(s) ^ t.LN = s.LN ^ t.home = s.home -> t.eid = s.eid", db)
	r.ID = "er"
	d := New(env, []*ree.Rule{r}, DefaultOptions())
	errs, err := d.Detect()
	if err != nil {
		t.Fatal(err)
	}
	if len(errs) != 1 {
		t.Fatalf("want exactly the (p1,p2) duplicate, got %d: %+v", len(errs), errs)
	}
	if errs[0].DupEIDs != [2]string{"p1", "p2"} {
		t.Errorf("dup pair=%v", errs[0].DupEIDs)
	}
	if errs[0].Task != ree.TaskER {
		t.Error("task must be ER")
	}
}

func TestErrorKeyDedup(t *testing.T) {
	a := &Error{RuleID: "r1", Task: ree.TaskCR, Cells: []data.CellRef{{Rel: "R", TID: 1, Attr: "x"}, {Rel: "R", TID: 2, Attr: "x"}}}
	b := &Error{RuleID: "r2", Task: ree.TaskCR, Cells: []data.CellRef{{Rel: "R", TID: 2, Attr: "x"}, {Rel: "R", TID: 1, Attr: "x"}}}
	if a.Key() != b.Key() {
		t.Error("cell order and rule id must not affect the key")
	}
	e1 := &Error{Task: ree.TaskER, DupEIDs: [2]string{"a", "b"}}
	e2 := &Error{Task: ree.TaskER, DupEIDs: [2]string{"a", "c"}}
	if e1.Key() == e2.Key() {
		t.Error("different pairs must differ")
	}
}

func TestDetectInvalidRule(t *testing.T) {
	env, _, _ := dirtyTransEnv(t, 10)
	bad := must.Rule("Ghost(t) -> t.a = 1", nil)
	d := New(env, []*ree.Rule{bad}, DefaultOptions())
	if _, err := d.Detect(); err == nil {
		t.Error("invalid rule must surface an error")
	}
}

func TestAttributeCulpritsNoFreq(t *testing.T) {
	// The no-tie-break variant still covers every violation.
	cellOf := func(tid int) data.CellRef { return data.CellRef{Rel: "R", TID: tid, Attr: "a"} }
	pair := func(a, b int) *Error {
		return &Error{RuleID: "r", Task: ree.TaskCR, Cells: []data.CellRef{cellOf(a), cellOf(b)}}
	}
	errs := []*Error{
		pair(1, 2),
		pair(1, 3),
		{RuleID: "r", Task: ree.TaskER, DupEIDs: [2]string{"x", "y"}},
	}
	out := AttributeCulpritsFreq(errs, nil)
	// TID 1 covers both edges: one culprit + the ER error pass through.
	if len(out) != 2 {
		t.Fatalf("out=%d: %+v", len(out), out)
	}
	foundCell, foundDup := false, false
	for _, e := range out {
		if e.Task == ree.TaskER {
			foundDup = true
		}
		if len(e.Cells) == 1 && e.Cells[0].TID == 1 {
			foundCell = true
		}
	}
	if !foundCell || !foundDup {
		t.Errorf("culprits wrong: %+v", out)
	}
	// Without scores a degree tie goes to the smaller key, and a self-edge
	// counts twice at its cell: 7 (self-edge + one neighbour, degree 3)
	// is blamed before 4 and 5 (degree 2 each), and of those two, 4.
	tied := []*Error{pair(5, 6), pair(4, 8), pair(7, 7), pair(4, 9), pair(5, 7)}
	var order []int
	for _, e := range AttributeCulpritsFreq(tied, nil) {
		order = append(order, e.Cells[0].TID)
	}
	if !slices.Equal(order, []int{7, 4, 5}) {
		t.Errorf("culprit order %v, want [7 4 5]", order)
	}
	if got, want := keyAndRule(AttributeCulpritsFreq(tied, nil)), keyAndRule(refAttributeCulpritsFreq(tied, nil)); !slices.Equal(got, want) {
		t.Errorf("differs from the reference: %v vs %v", got, want)
	}
}

// refAttributeCulpritsFreq is the attribution body this package shipped
// before the heap-driven cover, kept verbatim as the semantics the cover
// is held to: it recomputes every degree, every score and a full sort of
// the cell keys once per culprit picked.
func refAttributeCulpritsFreq(errs []*Error, freq func(data.CellRef) float64) []*Error {
	var out []*Error
	type edge struct{ a, b string }
	var edges []edge
	meta := map[string]data.CellRef{}
	byCellErr := map[string]*Error{}
	for _, e := range errs {
		if e.Task != ree.TaskER && len(e.Cells) == 2 {
			a, b := e.Cells[0], e.Cells[1]
			edges = append(edges, edge{a.String(), b.String()})
			meta[a.String()] = a
			meta[b.String()] = b
			if byCellErr[a.String()] == nil {
				byCellErr[a.String()] = e
			}
			if byCellErr[b.String()] == nil {
				byCellErr[b.String()] = e
			}
			continue
		}
		out = append(out, e)
	}
	covered := make([]bool, len(edges))
	remaining := len(edges)
	// Pre-pass: null cells (score < 0) are culprits outright.
	if freq != nil {
		cells := make([]string, 0, len(meta))
		for cellKey := range meta {
			cells = append(cells, cellKey)
		}
		sort.Strings(cells)
		for _, cellKey := range cells {
			if freq(meta[cellKey]) >= 0 {
				continue
			}
			for i, ed := range edges {
				if !covered[i] && (ed.a == cellKey || ed.b == cellKey) {
					covered[i] = true
					remaining--
				}
			}
			src := byCellErr[cellKey]
			out = append(out, &Error{RuleID: src.RuleID, Task: src.Task, Cells: []data.CellRef{meta[cellKey]}})
		}
	}
	for remaining > 0 {
		// Pick the cell covering the most uncovered edges; ties prefer the
		// rarer value, then the key, for determinism.
		best, bestDeg := "", 0
		bestFreq := 0.0
		deg := map[string]int{}
		for i, ed := range edges {
			if covered[i] {
				continue
			}
			deg[ed.a]++
			deg[ed.b]++
		}
		keys := make([]string, 0, len(deg))
		for k := range deg {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			f := 0.0
			if freq != nil {
				f = freq(meta[k])
			}
			if deg[k] > bestDeg || (deg[k] == bestDeg && freq != nil && f < bestFreq) {
				best, bestDeg, bestFreq = k, deg[k], f
			}
		}
		if best == "" {
			break
		}
		for i, ed := range edges {
			if !covered[i] && (ed.a == best || ed.b == best) {
				covered[i] = true
				remaining--
			}
		}
		src := byCellErr[best]
		out = append(out, &Error{RuleID: src.RuleID, Task: src.Task, Cells: []data.CellRef{meta[best]}})
	}
	return refUniqueByKey(out)
}

// refUniqueByKey keeps the first error of every Key, in place and in order.
func refUniqueByKey(errs []*Error) []*Error {
	seen := make(map[string]bool, len(errs))
	uniq := errs[:0]
	for _, e := range errs {
		if k := e.Key(); !seen[k] {
			seen[k] = true
			uniq = append(uniq, e)
		}
	}
	return uniq
}

// keyAndRule renders an error list as the ordered (Key, RuleID) pairs two
// attributions must agree on.
func keyAndRule(errs []*Error) []string {
	out := make([]string, len(errs))
	for i, e := range errs {
		out[i] = e.Key() + " by " + e.RuleID
	}
	return out
}

// TestAttributeCulpritsMatchesReference: on random violation graphs the
// heap-driven cover returns the reference's (Key, RuleID) list, in its
// order. Scores come from a small set so that degree and score ties both
// occur; about a quarter of the cells are null (score < 0); self-edges,
// repeated edges, one-cell errors (some on a cell the cover also blames)
// and ER errors are mixed in; freq is nil on every third graph.
func TestAttributeCulpritsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	selfEdges := 0
	for g := 0; g < 400; g++ {
		nCells, nErrs := 1+rng.Intn(30), rng.Intn(81)
		cellOf := func(i int) data.CellRef {
			return data.CellRef{Rel: "R" + fmt.Sprint(i%2), TID: i, Attr: "a"}
		}
		scores := make(map[data.CellRef]float64, nCells)
		for i := 0; i < nCells; i++ {
			scores[cellOf(i)] = []float64{-1, 1, 1.5, 2}[rng.Intn(4)]
		}
		var errs []*Error
		for i := 0; i < nErrs; i++ {
			e := &Error{RuleID: fmt.Sprintf("r%d", rng.Intn(4)), Task: ree.TaskCR}
			switch k := rng.Intn(10); {
			case k == 0:
				e.Task = ree.TaskER
				e.DupEIDs = [2]string{fmt.Sprint("e", rng.Intn(5)), fmt.Sprint("f", rng.Intn(5))}
			case k == 1:
				e.Cells = []data.CellRef{cellOf(rng.Intn(nCells))}
			case k == 2:
				c := cellOf(rng.Intn(nCells))
				e.Cells = []data.CellRef{c, c}
				selfEdges++
			default:
				e.Cells = []data.CellRef{cellOf(rng.Intn(nCells)), cellOf(rng.Intn(nCells))}
			}
			errs = append(errs, e)
		}
		var freq func(data.CellRef) float64
		if g%3 != 0 {
			freq = func(c data.CellRef) float64 { return scores[c] }
		}
		want := keyAndRule(refAttributeCulpritsFreq(errs, freq))
		got := keyAndRule(AttributeCulpritsFreq(errs, freq))
		if !slices.Equal(got, want) {
			t.Fatalf("graph %d (%d cells, %d errors, freq nil: %v):\n got %v\nwant %v", g, nCells, nErrs, freq == nil, got, want)
		}
	}
	if selfEdges == 0 {
		t.Fatal("no self-edge generated")
	}
}

// TestAttributeCulpritsScoresEachCellOnce is the complexity guard: freq is
// called at most once per distinct cell, however many culprits are picked
// (the reference calls it once per live cell per culprit).
func TestAttributeCulpritsScoresEachCellOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var errs []*Error
	cells := map[data.CellRef]bool{}
	for i := 0; i < 2000; i++ {
		a := data.CellRef{Rel: "R", TID: rng.Intn(600), Attr: "a"}
		b := data.CellRef{Rel: "R", TID: rng.Intn(600), Attr: "b"}
		cells[a], cells[b] = true, true
		errs = append(errs, &Error{RuleID: "r", Task: ree.TaskCR, Cells: []data.CellRef{a, b}})
	}
	calls := map[data.CellRef]int{}
	out := AttributeCulpritsFreq(errs, func(c data.CellRef) float64 {
		calls[c]++
		return float64(c.TID % 5)
	})
	if len(out) < 100 {
		t.Fatalf("only %d culprits on a 2000-edge graph: the guard needs many picks", len(out))
	}
	if len(calls) != len(cells) {
		t.Errorf("freq saw %d cells, the graph has %d", len(calls), len(cells))
	}
	for c, n := range calls {
		if n > 1 {
			t.Fatalf("freq called %d times for %s (%d culprits picked)", n, c, len(out))
		}
	}
}

// TestDetectMatchesReferenceAttribution: what DetectCtx returns is the
// reference attribution of the detector's merged violation list, sorted by
// key — same keys, same rules, same order — on the application datasets
// and on Scale, at several worker counts.
func TestDetectMatchesReferenceAttribution(t *testing.T) {
	cases := []struct {
		name string
		gen  func(workload.Config) *workload.Dataset
		n    int
	}{
		{"bank", workload.Bank, 300},
		{"logistics", workload.Logistics, 300},
		{"sales", workload.Sales, 300},
		{"bank", workload.Bank, 1000},
		{"logistics", workload.Logistics, 1000},
		{"sales", workload.Sales, 1000},
		{"scale", workload.Scale, 20000},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s-%d", tc.name, tc.n), func(t *testing.T) {
			ds := tc.gen(workload.Config{N: tc.n, Seed: 2024})
			env := ds.BuildEnv()
			for _, workers := range []int{1, 2, 8} {
				o := DefaultOptions()
				o.Workers = workers
				d := New(env, ds.Rules, o)
				got, err := d.Detect()
				if err != nil {
					t.Fatal(err)
				}
				results, _, err := d.violations(context.Background(), nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				violations, _, err := strMerge(results)
				if err != nil {
					t.Fatal(err)
				}
				want := refAttributeCulpritsFreq(violations.errs, strCulpritScoreFn(env.DB))
				sort.Slice(want, func(i, j int) bool { return want[i].Key() < want[j].Key() })
				if len(got) == 0 {
					t.Fatal("nothing detected")
				}
				if !slices.Equal(keyAndRule(got), keyAndRule(want)) {
					t.Fatalf("workers=%d: %d errors, the reference gives %d, or the lists differ", workers, len(got), len(want))
				}
			}
		})
	}
}

func TestDetectSingleVariableRule(t *testing.T) {
	env, rel, _ := dirtyTransEnv(t, 30)
	rel.Insert("odd", data.S("line 0"), data.Null(data.TString))
	r := must.Rule("Trans(t) ^ !null(t.com) -> t.mfg = 'maker 0'", env.DB)
	r.ID = "single"
	d := New(env, []*ree.Rule{r}, DefaultOptions())
	errs, err := d.Detect()
	if err != nil {
		t.Fatal(err)
	}
	if len(errs) == 0 {
		t.Error("single-variable rule must detect")
	}
	for _, e := range errs {
		if len(e.Cells) != 1 {
			t.Errorf("single-var violations implicate one cell: %+v", e)
		}
	}
}

// BenchmarkAttributeCulprits: detection's whole serial tail — merge,
// cover (column statistics included) and key order — over the unit slots
// detection fills for Logistics at N = 1000 (about 15k raw violations,
// a 14k-edge graph over 1.6k cells).
func BenchmarkAttributeCulprits(b *testing.B) {
	ds := workload.Logistics(workload.Config{N: 1000, Seed: 2024})
	env := ds.BuildEnv()
	results, _, err := New(env, ds.Rules, DefaultOptions()).violations(context.Background(), nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if attributedSink, _, err = tail(results, env.DB); err != nil {
			b.Fatal(err)
		}
	}
}

var attributedSink []*Error
