package exec

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/rockclean/rock/internal/crystal"
	"github.com/rockclean/rock/internal/data"
	"github.com/rockclean/rock/internal/must"
	"github.com/rockclean/rock/internal/obs"
	"github.com/rockclean/rock/internal/predicate"
	"github.com/rockclean/rock/internal/ree"
)

// The executor has one columnar body per job (join, selection, probe).
// This harness runs every rule shape on it and compares the ORDERED
// emission with a brute-force scan in TID order — the deterministic-merge
// invariant is about order, not just the set.

// equivSizes straddle the bitmap-word boundaries and the two size gates
// the executor used to have (128 and 4096).
var equivSizes = []int{0, 1, 2, 63, 64, 65, 127, 128, 129, 4097}

// testView is a predicate.View over a hook written over relation and
// attribute names, shadowing the TIDs it was built with.
type testView struct {
	value  func(rel string, tp *data.Tuple, attr string) data.Value
	shadow map[string][]int
}

// newTestView builds the view of value that shadows the given TIDs.
func newTestView(value func(rel string, tp *data.Tuple, attr string) data.Value, shadow map[string]map[int]bool) *testView {
	v := &testView{value: value, shadow: map[string][]int{}}
	for rel, tids := range shadow {
		for tid := range tids {
			v.shadow[rel] = append(v.shadow[rel], tid)
		}
		slices.Sort(v.shadow[rel])
	}
	return v
}

func (v *testView) Value(r *data.Relation, tp *data.Tuple, col int) data.Value {
	if col < 0 {
		return data.Value{}
	}
	return v.value(r.Schema.Name, tp, r.Schema.Attrs[col].Name)
}

func (v *testView) Shadowed(r *data.Relation) []int { return v.shadow[r.Schema.Name] }

func rawValue(env *predicate.Env, rel string, tp *data.Tuple, attr string) data.Value {
	return tp.Values[env.DB.Rel(rel).Schema.Index(attr)]
}

// viewValue reads tp[attr] as the executor must see it: through the
// env's view when it has one, raw otherwise.
func viewValue(env *predicate.Env, rel string, tp *data.Tuple, attr string) data.Value {
	r := env.DB.Rel(rel)
	return env.Value(r, tp, r.Schema.Index(attr))
}

// emissionTrace runs a rule and records the TIDs of every emitted
// valuation, atom by atom, in emission order.
func emissionTrace(t testing.TB, e *Executor, r *ree.Rule, opts Options) []int {
	t.Helper()
	var trace []int
	_, err := e.Run(r, opts, func(h *predicate.Valuation) bool {
		for _, tp := range h.Tuples {
			trace = append(trace, tp.TID)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return trace
}

// columnar runs r on a fresh executor, requires that it bumped every
// counter in took, and returns its trace and its registry.
func columnar(t *testing.T, env *predicate.Env, r *ree.Rule, opts Options, took ...string) ([]int, *obs.Registry) {
	t.Helper()
	reg := obs.New()
	e := New(env)
	e.SetObs(reg)
	got := emissionTrace(t, e, r, opts)
	for _, c := range took {
		if reg.CounterValue(c) == 0 {
			t.Fatalf("columnar executor never bumped %s", c)
		}
	}
	return got, reg
}

// pushdownEnv is the constant-filter fixture: region/code columns with a
// null stripe in code (every 31st tuple).
func pushdownEnv(t *testing.T, n int) *predicate.Env {
	t.Helper()
	rel := data.NewRelation(must.Schema("Ev",
		data.Attribute{Name: "region", Type: data.TString},
		data.Attribute{Name: "code", Type: data.TString},
	))
	for i := 0; i < n; i++ {
		code := data.S(fmt.Sprintf("C%d", i%10))
		if i%31 == 0 {
			code = data.Null(data.TString)
		}
		rel.Insert(fmt.Sprintf("e%d", i), data.S(fmt.Sprintf("R%d", i%10)), code)
	}
	db := data.NewDatabase()
	db.Add(rel)
	return predicate.NewEnv(db)
}

// shadowRegions installs a view that moves every 5th tuple into region R7
// and every 30th-plus-7 tuple out of it, shadowing exactly those.
func shadowRegions(env *predicate.Env) {
	shadow := map[int]bool{}
	for _, tp := range env.DB.Rel("Ev").Tuples {
		if tp.TID%5 == 0 || tp.TID%30 == 7 {
			shadow[tp.TID] = true
		}
	}
	env.View = newTestView(func(rel string, tp *data.Tuple, attr string) data.Value {
		switch {
		case attr == "region" && tp.TID%5 == 0:
			return data.S("R7")
		case attr == "region" && tp.TID%30 == 7:
			return data.S("R1")
		}
		return rawValue(env, rel, tp, attr)
	}, map[string]map[int]bool{"Ev": shadow})
}

// selections lists every selection shape — equality, inequality, null,
// not-null, their conjunctions, and an ordered compare that evaluates per
// tuple, beside id compares and alone — with the predicate it must agree
// with on a brute-force scan (region through the view, code raw: the hook
// never touches code).
var selections = []struct {
	name, src, took string
	want            func(region, code data.Value) bool
}{
	{"eq", "Ev(t) ^ t.region = 'R7' -> t.code = 'C7'", "exec.vec.posting_selects",
		func(region, code data.Value) bool { return region.Equal(data.S("R7")) }},
	{"null", "Ev(t) ^ null(t.code) -> t.code = 'C0'", "exec.vec.posting_selects",
		func(region, code data.Value) bool { return code.IsNull() }},
	{"notnull", "Ev(t) ^ !null(t.code) -> t.code = 'C0'", "exec.vec.select_batches",
		func(region, code data.Value) bool { return !code.IsNull() }},
	{"eq+null", "Ev(t) ^ t.region = 'R7' ^ null(t.code) -> t.code = 'C7'", "exec.vec.posting_selects",
		func(region, code data.Value) bool { return region.Equal(data.S("R7")) && code.IsNull() }},
	{"neq+notnull", "Ev(t) ^ t.region != 'R0' ^ !null(t.code) -> t.code = 'C9'", "exec.vec.select_batches",
		func(region, code data.Value) bool { return !region.Equal(data.S("R0")) && !code.IsNull() }},
	{"eq+eq", "Ev(t) ^ t.region = 'R3' ^ t.code = 'C3' -> t.code = 'C3'", "exec.vec.posting_selects",
		func(region, code data.Value) bool { return region.Equal(data.S("R3")) && code.Equal(data.S("C3")) }},
	{"eq+gt", "Ev(t) ^ t.region = 'R7' ^ t.code > 'C5' -> t.code = 'C7'", "exec.vec.posting_selects",
		func(region, code data.Value) bool {
			return region.Equal(data.S("R7")) && !code.IsNull() && code.Compare(data.S("C5")) > 0
		}},
	{"neq+gt", "Ev(t) ^ t.region != 'R0' ^ t.code > 'C5' -> t.code = 'C7'", "exec.vec.select_batches",
		func(region, code data.Value) bool {
			return !region.Equal(data.S("R0")) && !code.IsNull() && code.Compare(data.S("C5")) > 0
		}},
	{"gt", "Ev(t) ^ t.code > 'C5' -> t.code = 'C7'", "exec.vec.select_batches",
		func(region, code data.Value) bool { return !code.IsNull() && code.Compare(data.S("C5")) > 0 }},
}

func checkSelections(t *testing.T, n int, shadowed bool) {
	env := pushdownEnv(t, n)
	if shadowed {
		shadowRegions(env)
	}
	for _, tc := range selections {
		r := must.Rule(tc.src, env.DB)
		r.ID = tc.name
		got, reg := columnar(t, env, r, Options{}, tc.took)
		var want []int
		for _, tp := range env.DB.Rel("Ev").Tuples {
			if tc.want(viewValue(env, "Ev", tp, "region"), tp.Values[1]) {
				want = append(want, tp.TID)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: selected %d tuples, brute-force scan %d", tc.name, len(got), len(want))
		}
		// The selection itself keeps exactly the survivors, not a superset
		// the valuation check trims later.
		if kept := reg.CounterValue("exec.vec.select_kept"); kept != uint64(len(want)) {
			t.Fatalf("%s: selection kept %d tuples, brute-force scan %d", tc.name, kept, len(want))
		}
	}
}

// joinEnv sizes the cross-type fixture so buckets stay small below the
// former gates and exceed heavyPostingLen (the intersection memo) above.
func joinEnv(t *testing.T, nA, nB int) *predicate.Env {
	mod := 10
	if nB > 1000 {
		mod = 40
	}
	return mixedNumericEnv(t, nA, nB, mod)
}

// shadowNumeric installs a view over the A/B fixture: A0's view kills its
// raw match, A1 and B2 move onto a value in neither dictionary (they match
// only each other, through the overflow index), and B4 moves onto 3, a
// value B's dictionary has (merged into that bucket by position).
func shadowNumeric(env *predicate.Env) {
	env.View = newTestView(func(rel string, tp *data.Tuple, attr string) data.Value {
		switch {
		case rel == "A" && tp.TID == 0:
			return data.I(1234567)
		case rel == "A" && tp.TID == 1, rel == "B" && tp.TID == 2:
			return data.F(777777.25)
		case rel == "B" && tp.TID == 4:
			return data.F(3)
		}
		return rawValue(env, rel, tp, attr)
	}, map[string]map[int]bool{"A": {0: true, 1: true}, "B": {2: true, 4: true}})
}

// matchesOf is the brute-force join oracle: per A tuple, the B tuples
// whose view value is Equal — cross-type (I(5) = F(5)) included, the
// Key/Equal agreement every index depends on.
func matchesOf(env *predicate.Env) map[int][]int {
	out := map[int][]int{}
	for _, ta := range env.DB.Rel("A").Tuples {
		va := viewValue(env, "A", ta, "x")
		for _, tb := range env.DB.Rel("B").Tuples {
			if va.Equal(viewValue(env, "B", tb, "y")) {
				out[ta.TID] = append(out[ta.TID], tb.TID)
			}
		}
	}
	return out
}

func checkJoin(t *testing.T, n int, shadowed bool) {
	env := joinEnv(t, n, n)
	if shadowed {
		shadowNumeric(env)
	}
	r := must.Rule("A(t) ^ B(s) ^ t.x = s.y -> t.eid = s.eid", env.DB)
	r.ID = "join"
	full, _ := columnar(t, env, r, Options{}, "exec.vec.joins")
	var want []int
	matches := matchesOf(env)
	for _, ta := range env.DB.Rel("A").Tuples {
		for _, s := range matches[ta.TID] {
			want = append(want, ta.TID, s)
		}
	}
	if !slices.Equal(full, want) {
		t.Fatalf("join emitted %d pairs, brute-force Equal scan %d", len(full)/2, len(want)/2)
	}
	if n >= 63 && len(full) == 0 {
		t.Fatal("fixture should produce matches")
	}
	if shadowed && n > 4 && !slices.Equal(matches[1], []int{2}) {
		t.Fatalf("A1 must match exactly B2 through the overflow value, got %v", matches[1])
	}

	// Incremental runs: dirty tuples on both sides, on the driver side
	// only (the s-side set is nil), and — when shadowed — on a shadowed s
	// tuple, so the position merge filters too.
	for _, dirty := range []map[string]map[int]bool{
		{"A": {n / 2: true, n - 1: true}, "B": {n / 3: true, 2: true}},
		{"A": {n / 2: true, n - 1: true}},
	} {
		got, _ := columnar(t, env, r, Options{Dirty: dirty}, "exec.vec.joins")
		var wantDirty []int
		for i := 0; i < len(want); i += 2 {
			if dirty["A"][want[i]] || dirty["B"][want[i+1]] {
				wantDirty = append(wantDirty, want[i], want[i+1])
			}
		}
		if !slices.Equal(got, wantDirty) {
			t.Fatalf("dirty join emitted %d pairs, brute-force Equal scan %d", len(got)/2, len(wantDirty)/2)
		}
		if n >= 63 && (len(got) == 0 || len(got) >= len(full)) {
			t.Fatalf("dirty filter must shrink emissions: %d of %d", len(got), len(full))
		}
	}
}

// checkProbe drives the same equality through both drivers: s binds from
// the pair list (hashJoin), u from probeJoin. Every A tuple with at least
// two matches must see all of them on both sides (s ≠ u hides a lone one).
func checkProbe(t *testing.T, n int, shadowed bool) {
	env := mixedNumericEnv(t, min(n, 50), n, max(10, n/4))
	if shadowed {
		shadowNumeric(env)
	}
	r := must.Rule("A(t) ^ B(s) ^ B(u) ^ t.x = s.y ^ t.x = u.y -> t.eid = s.eid", env.DB)
	r.ID = "probe"
	var took []string
	if n >= 63 {
		took = []string{"exec.vec.joins", "exec.vec.probe_selects"}
	}
	got, _ := columnar(t, env, r, Options{}, took...)
	var want []int
	matches := matchesOf(env)
	for _, ta := range env.DB.Rel("A").Tuples {
		for _, s := range matches[ta.TID] {
			for _, u := range matches[ta.TID] {
				if s != u {
					want = append(want, ta.TID, s, u)
				}
			}
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("probe emitted %d valuations, brute-force Equal scan %d", len(got)/3, len(want)/3)
	}
	if n >= 63 && len(got) == 0 {
		t.Fatal("fixture should produce matches")
	}
}

func TestColumnarMatchesReference(t *testing.T) {
	for _, n := range equivSizes {
		for _, shadowed := range []bool{false, true} {
			t.Run(fmt.Sprintf("n=%d/shadowed=%v", n, shadowed), func(t *testing.T) {
				checkSelections(t, n, shadowed)
				checkJoin(t, n, shadowed)
				if n < 4096 { // the composite oracle scans n² pairs per shape; TestHashJoinKeys* cover dense buckets
					checkCompositeJoin(t, n, shadowed)
				}
				checkProbe(t, n, shadowed)
			})
		}
	}
}

// threeJobRule has a selection on u, a join driving (t, s) and a probe
// binding u, so one run exercises all three jobs.
const threeJobRule = "R(t) ^ R(s) ^ R(u) ^ t.k = s.k ^ s.k = u.k ^ u.flag = 'x' -> t.eid = s.eid"

// threeJobTrace is threeJobRule's brute-force oracle: every (t, s, u) of
// pairwise distinct tuples with t.k = s.k = u.k and u.flag = 'x', in the
// executor's emission order (t, then s, then u ascending by TID).
func threeJobTrace(rel *data.Relation) []int {
	var out []int
	for _, t := range rel.Tuples {
		for _, s := range rel.Tuples {
			if s == t || !s.Values[0].Equal(t.Values[0]) {
				continue
			}
			for _, u := range rel.Tuples {
				if u != t && u != s && u.Values[0].Equal(s.Values[0]) && u.Values[1].Equal(data.S("x")) {
					out = append(out, t.TID, s.TID, u.TID)
				}
			}
		}
	}
	return out
}

// Every partition is TID-ascending by construction, so one that is not is
// an error of the caller — for each job: the selection (u's candidates),
// the join (t's side) and the probe (u's candidates, without a selection).
func TestColumnarDescendingPartitionIsAnError(t *testing.T) {
	env := keyedEnv(t, 100)
	tuples := env.DB.Rel("R").Tuples
	reversed := slices.Clone(tuples)
	slices.Reverse(reversed)
	asc, desc := crystal.Block{Tuples: tuples}, crystal.Block{Tuples: reversed}
	probeOnly := must.Rule("R(t) ^ R(s) ^ R(u) ^ t.k = s.k ^ s.k = u.k -> t.val = s.val", env.DB)
	for _, tc := range []struct {
		name string
		rule *ree.Rule
		opts Options
	}{
		{"selection", must.Rule("R(u) ^ u.flag = 'x' -> u.val = 'v0'", env.DB), Options{RestrictVar: map[string]crystal.Block{"u": desc}}},
		{"join", must.Rule("R(t) ^ R(s) ^ t.k = s.k -> t.val = s.val", env.DB), Options{RestrictVar: map[string]crystal.Block{"t": desc}}},
		{"probe", probeOnly, Options{RestrictVar: map[string]crystal.Block{"t": asc, "s": asc, "u": desc}}},
		{"all", must.Rule(threeJobRule, env.DB), Options{RestrictVar: map[string]crystal.Block{"t": desc, "s": desc, "u": desc}}},
	} {
		_, err := New(env).Run(tc.rule, tc.opts, func(*predicate.Valuation) bool { return true })
		if err == nil || !strings.Contains(err.Error(), "TID-ascending") {
			t.Fatalf("%s: descending partition gave error %v", tc.name, err)
		}
	}
	// The same rules over the ascending relation run.
	if got := emissionTrace(t, New(env), probeOnly, Options{}); len(got) == 0 {
		t.Fatal("fixture should produce matches")
	}
}

// A stale column is never served: after inserts the executor's next read
// rebuilds each column the rule reads (exec.columns.built), and after a
// delete the rebuilt column has a hole at the deleted TID, which no
// partition and no posting list holds. Either way join and probe run
// columnar and match a brute-force scan.
func TestColumnarAfterInsertsAndDeletes(t *testing.T) {
	env := keyedEnv(t, 100)
	rel := env.DB.Rel("R")
	r := must.Rule(threeJobRule, env.DB)
	reg := obs.New()
	e := New(env)
	e.SetObs(reg)
	check := func(stage string) {
		t.Helper()
		joins, probes := reg.CounterValue("exec.vec.joins"), reg.CounterValue("exec.vec.probe_selects")
		got := emissionTrace(t, e, r, Options{})
		if want := threeJobTrace(rel); len(want) == 0 || !slices.Equal(got, want) {
			t.Fatalf("%s: emitted %d valuations, brute-force scan %d", stage, len(got)/3, len(want)/3)
		}
		if reg.CounterValue("exec.vec.joins") == joins || reg.CounterValue("exec.vec.probe_selects") == probes {
			t.Fatalf("%s: join or probe did not run columnar", stage)
		}
	}
	check("fresh")
	built := reg.CounterValue("exec.columns.built")
	if built == 0 {
		t.Fatal("the first run built no column")
	}
	for i := 0; i < 30; i++ {
		flag := "y"
		if i == 3 {
			flag = "x"
		}
		rel.Insert(fmt.Sprintf("n%d", i), data.S(fmt.Sprintf("k%d", i%12)), data.S(flag), data.S("v"))
	}
	check("after inserts")
	if got := reg.CounterValue("exec.columns.built"); got != 2*built {
		t.Fatalf("%d column builds after the insert, want %d: each column the rule reads, once", got-built, built)
	}
	rel.Delete(rel.Tuples[10].TID)
	rel.Delete(rel.Tuples[0].TID) // a flag = 'x' tuple
	check("after deletes")
}
