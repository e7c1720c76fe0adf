package detect

import (
	"fmt"
	"slices"
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
	inc, err := d.DetectIncremental(dirty)
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

func TestDetectSimulatedMatchesBatch(t *testing.T) {
	env, _, _ := dirtyTransEnv(t, 60)
	o := DefaultOptions()
	o.Workers = 8
	d := New(env, []*ree.Rule{crRule(t, env)}, o)
	batch, err := d.Detect()
	if err != nil {
		t.Fatal(err)
	}
	sim, makespan, err := d.DetectSimulated()
	if err != nil {
		t.Fatal(err)
	}
	if makespan <= 0 {
		t.Error("simulated makespan must be positive")
	}
	if len(sim) != len(batch) {
		t.Fatalf("simulated run found %d errors, batch %d", len(sim), len(batch))
	}
	for i := range sim {
		if sim[i].Key() != batch[i].Key() {
			t.Fatalf("result %d differs between modes", i)
		}
	}
	// More workers shrink (or hold) the simulated makespan.
	o2 := DefaultOptions()
	o2.Workers = 1
	d1 := New(env, []*ree.Rule{crRule(t, env)}, o2)
	_, m1, err := d1.DetectSimulated()
	if err != nil {
		t.Fatal(err)
	}
	// Timing noise allowed, but 8 workers should not cost 3x one worker.
	if makespan > 3*m1 {
		t.Errorf("8-worker makespan %v vs 1-worker %v", makespan, m1)
	}
}

func TestAttributeCulpritsNoFreq(t *testing.T) {
	// The no-tie-break variant still covers every violation.
	errs := []*Error{
		{RuleID: "r", Task: ree.TaskCR, Cells: []data.CellRef{{Rel: "R", TID: 1, Attr: "a"}, {Rel: "R", TID: 2, Attr: "a"}}},
		{RuleID: "r", Task: ree.TaskCR, Cells: []data.CellRef{{Rel: "R", TID: 1, Attr: "a"}, {Rel: "R", TID: 3, Attr: "a"}}},
		{RuleID: "r", Task: ree.TaskER, DupEIDs: [2]string{"x", "y"}},
	}
	out := AttributeCulprits(errs)
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
