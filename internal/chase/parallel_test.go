// External test package: exercises the parallel chase through the same
// workload + bench wiring the experiments use, without an import cycle.
package chase_test

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"github.com/rockclean/rock/internal/baselines"
	"github.com/rockclean/rock/internal/chase"
	"github.com/rockclean/rock/internal/data"
	"github.com/rockclean/rock/internal/must"
	"github.com/rockclean/rock/internal/obs"
	"github.com/rockclean/rock/internal/predicate"
	"github.com/rockclean/rock/internal/ree"
	"github.com/rockclean/rock/internal/truth"
	"github.com/rockclean/rock/internal/workload"
)

// TestParallelChaseDeterminism pins the two guarantees of the parallel
// round, per workload over one shared trained environment:
//
//  1. Running the same work units on 8 worker goroutines is bit-identical
//     to running them serially — same fix set AND same report: counters,
//     ResolvedMI and the whole Unresolved sequence (per-unit outcomes
//     merge in generation order, oracle questions are memoised
//     order-independently). The oracle-free cases escalate every
//     undecided pair during deduction, on every worker at once, which is
//     where report state used to arrive in goroutine order.
//  2. By Church-Rosser, the Workers=8 fix set equals the Workers=1 fix
//     set even though the HyperCube partitioning generates entirely
//     different work units (counters legitimately differ there: block
//     combinations re-enumerate boundary valuations). Checked on the
//     oracle cases only: oracle-free Sales N=300 keeps one different
//     CustomerInfo.tier order edge at Workers=1 than at Workers=8 (which
//     of two conflicting order fixes the merge meets first depends on the
//     partitioning) — order-dependent resolution, ROADMAP anomaly G.
func TestParallelChaseDeterminism(t *testing.T) {
	cfg := workload.Config{N: 300, Seed: 7}
	cases := []struct {
		name   string
		oracle bool
		mk     func() *workload.Dataset
	}{
		{"ecommerce", true, workload.Ecommerce},
		{"logistics", true, func() *workload.Dataset { return workload.Logistics(workload.Config{N: 120, Seed: 7}) }},
		{"logistics-no-oracle", false, func() *workload.Dataset { return workload.Logistics(cfg) }},
		{"bank-no-oracle", false, func() *workload.Dataset { return workload.Bank(cfg) }},
		{"sales-no-oracle", false, func() *workload.Dataset { return workload.Sales(cfg) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bench := baselines.NewBench(tc.mk(), 8)
			run := func(workers int, parallel, predication bool) (string, *chase.Report) {
				opts := chase.DefaultOptions()
				opts.Workers = workers
				opts.Parallel = parallel
				opts.Predication = predication
				if tc.oracle {
					opts.Oracle = bench.GoldOracle()
				}
				opts.EIDRefs = bench.DS.EIDRefs
				eng := chase.New(bench.Env, bench.Rules, bench.DS.Gamma, opts)
				rep, err := eng.Run()
				if err != nil {
					t.Fatal(err)
				}
				return eng.Truth().Snapshot(), rep
			}

			// The §5.4 predication layer is pure memoisation, so the full
			// matrix — workers × parallel × predication — must land on one
			// fix set.
			var baseSnap string
			for _, predication := range []bool{true, false} {
				w1Snap, _ := run(1, false, predication)
				w8SerialSnap, w8SerialRep := run(8, false, predication)
				w8ParSnap, w8ParRep := run(8, true, predication)

				if w8ParSnap != w8SerialSnap {
					t.Errorf("predication=%t: parallel round differs from serial round at Workers=8:\nserial=%s\nparallel=%s",
						predication, w8SerialSnap, w8ParSnap)
				}
				if tc.oracle && w8ParSnap != w1Snap {
					t.Errorf("predication=%t: Workers=8 fix set differs from Workers=1:\nW1=%s\nW8=%s",
						predication, w1Snap, w8ParSnap)
				}
				if w8ParRep.Valuations != w8SerialRep.Valuations {
					t.Errorf("predication=%t: parallel round changed enumeration: %d valuations vs %d serial",
						predication, w8ParRep.Valuations, w8SerialRep.Valuations)
				}
				if w8ParRep.OracleCalls != w8SerialRep.OracleCalls {
					t.Errorf("predication=%t: parallel round changed oracle effort: %d calls vs %d serial",
						predication, w8ParRep.OracleCalls, w8SerialRep.OracleCalls)
				}
				if got, want := unresolvedSeq(w8ParRep), unresolvedSeq(w8SerialRep); !slices.Equal(got, want) {
					t.Errorf("predication=%t: parallel round reordered Report.Unresolved (%d entries, %d serial): first difference at %d",
						predication, len(got), len(want), firstDiff(got, want))
				}
				if w8ParRep.ResolvedMI != w8SerialRep.ResolvedMI {
					t.Errorf("predication=%t: parallel round changed ResolvedMI: %d vs %d serial",
						predication, w8ParRep.ResolvedMI, w8SerialRep.ResolvedMI)
				}
				if w8ParRep.Rounds != w8SerialRep.Rounds {
					t.Errorf("predication=%t: parallel round changed convergence: %d rounds vs %d serial",
						predication, w8ParRep.Rounds, w8SerialRep.Rounds)
				}
				if baseSnap == "" {
					baseSnap = w8ParSnap
				} else if w8ParSnap != baseSnap {
					t.Errorf("fix set depends on predication setting:\non=%s\noff=%s", baseSnap, w8ParSnap)
				}
			}
		})
	}
}

// unresolvedSeq renders Report.Unresolved entry by entry, in order.
func unresolvedSeq(rep *chase.Report) []string {
	out := make([]string, len(rep.Unresolved))
	for i, u := range rep.Unresolved {
		out[i] = u.Conflict.Error() + " / " + u.Fix.String()
	}
	return out
}

// firstDiff is the first index at which a and b differ.
func firstDiff(a, b []string) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// TestIncrementalMatchesBatchMatrix pins the incremental mode's dirty-set
// propagation across rounds: for every combination of Parallel ×
// Predication, chasing the base data and then RunIncrementalCtx over
// ΔD must land on exactly the fix set a batch chase over base+ΔD
// produces. ΔD is built so fixes cascade (imputation in round 1 enables
// an ER merge in round 2), exercising activation across rounds.
func TestIncrementalMatchesBatchMatrix(t *testing.T) {
	type row struct {
		eid    string
		values []data.Value
	}
	mkRow := func(eid, ln, fn, home, status string) row {
		h := data.Null(data.TString)
		if home != "" {
			h = data.S(home)
		}
		return row{eid, []data.Value{data.S(ln), data.S(fn), h, data.S(status), data.Null(data.TString)}}
	}
	base := []row{
		mkRow("p1", "Jones", "C", "addr one", "single"),
		mkRow("p2", "Jones", "C", "", "single"),
		mkRow("p3", "Brown", "B", "addr nine", "married"),
	}
	delta := []row{
		mkRow("p9", "Jones", "C", "", "single"),
		mkRow("p10", "Smith", "A", "addr two", "single"),
		mkRow("p11", "Smith", "A", "", "single"),
	}
	mkEnv := func() (*predicate.Env, *data.Relation) {
		schema := must.Schema("Person",
			data.Attribute{Name: "LN", Type: data.TString},
			data.Attribute{Name: "FN", Type: data.TString},
			data.Attribute{Name: "home", Type: data.TString},
			data.Attribute{Name: "status", Type: data.TString},
			data.Attribute{Name: "spouse", Type: data.TString},
		)
		rel := data.NewRelation(schema)
		db := data.NewDatabase()
		db.Add(rel)
		return predicate.NewEnv(db), rel
	}
	mkRules := func(db *data.Database) []*ree.Rule {
		mi := must.Rule("Person(t) ^ Person(s) ^ t.LN = s.LN ^ t.FN = s.FN ^ null(s.home) -> s.home = t.home", db)
		mi.ID = "mi"
		er := must.Rule("Person(t) ^ Person(s) ^ t.LN = s.LN ^ t.home = s.home -> t.eid = s.eid", db)
		er.ID = "er"
		return []*ree.Rule{mi, er}
	}
	for _, parallel := range []bool{false, true} {
		for _, predication := range []bool{false, true} {
			name := fmt.Sprintf("parallel=%t/predication=%t", parallel, predication)
			t.Run(name, func(t *testing.T) {
				opts := chase.DefaultOptions()
				opts.Workers = 4
				opts.Parallel = parallel
				opts.Predication = predication

				// Batch reference over base + ΔD.
				envB, relB := mkEnv()
				for _, r := range append(append([]row(nil), base...), delta...) {
					relB.Insert(r.eid, r.values...)
				}
				engB := chase.New(envB, mkRules(envB.DB), truth.NewFixSet(), opts)
				if _, err := engB.Run(); err != nil {
					t.Fatal(err)
				}

				// Base chase, then incremental over ΔD.
				envI, relI := mkEnv()
				for _, r := range base {
					relI.Insert(r.eid, r.values...)
				}
				engI := chase.New(envI, mkRules(envI.DB), truth.NewFixSet(), opts)
				if _, err := engI.Run(); err != nil {
					t.Fatal(err)
				}
				dirty := map[string]map[int]bool{"Person": {}}
				for _, r := range delta {
					nt := relI.Insert(r.eid, r.values...)
					dirty["Person"][nt.TID] = true
				}
				if _, err := engI.RunIncrementalCtx(context.Background(), dirty); err != nil {
					t.Fatal(err)
				}

				if got, want := engI.Truth().Snapshot(), engB.Truth().Snapshot(); got != want {
					t.Errorf("incremental fix set differs from batch:\nbatch=%s\nincremental=%s", want, got)
				}
				// The cascade actually happened: p9 imputed, Smiths merged.
				if v, ok := engI.Truth().Cell("Person", "p9", "home"); !ok || v.Str() != "addr one" {
					t.Errorf("incremental imputation missing: %v %v", v, ok)
				}
				if !engI.Truth().SameEntity("p10", "p11") {
					t.Error("incremental run must merge p10/p11 after imputing p11.home")
				}
			})
		}
	}
}

// TestObsMetricsAgreeWithReport pins the "views over the registry"
// contract: the scalar Report fields, the fix counts, the per-round trace
// and the registry counters are one consistent dataset.
func TestObsMetricsAgreeWithReport(t *testing.T) {
	bench := baselines.NewBench(workload.Ecommerce(), 8)
	reg := obs.New()
	opts := chase.DefaultOptions()
	opts.Workers = 8
	opts.Obs = reg
	opts.Oracle = bench.GoldOracle()
	opts.EIDRefs = bench.DS.EIDRefs
	eng := chase.New(bench.Env, bench.Rules, bench.DS.Gamma, opts)
	rep, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	m := rep.Metrics.Counters
	if m == nil {
		t.Fatal("Report.Metrics not populated")
	}
	checks := []struct {
		name string
		got  uint64
		want int
	}{
		{"chase.rounds", m["chase.rounds"], rep.Rounds},
		{"chase.valuations", m["chase.valuations"], rep.Valuations},
		{"chase.ml_calls", m["chase.ml_calls"], rep.MLCalls},
		{"chase.fixes.applied", m["chase.fixes.applied"], len(rep.Applied)},
	}
	for _, c := range checks {
		if c.got != uint64(c.want) {
			t.Errorf("%s = %d, but Report says %d", c.name, c.got, c.want)
		}
	}
	if m["chase.wall_ns"] != uint64(rep.WallClock) {
		t.Errorf("chase.wall_ns = %d, but Report.WallClock = %d", m["chase.wall_ns"], rep.WallClock)
	}
	// The engine recorded into the registry the caller passed in.
	if reg.CounterValue("chase.rounds") != uint64(rep.Rounds) {
		t.Error("Options.Obs registry not the one the engine recorded into")
	}
	// Per-round trace: node counts sum to the round's submitted units, and
	// the trace totals reconcile with the counters.
	if len(rep.Trace) != rep.Rounds {
		t.Fatalf("trace has %d rows for %d rounds", len(rep.Trace), rep.Rounds)
	}
	var units, applied, vals uint64
	for _, tr := range rep.Trace {
		sum := 0
		for _, n := range tr.NodeUnits {
			sum += n
		}
		if sum != tr.Units {
			t.Errorf("round %d: node units sum to %d, want %d (%v)", tr.Round, sum, tr.Units, tr.NodeUnits)
		}
		units += uint64(tr.Units)
		applied += uint64(tr.Applied)
		vals += uint64(tr.Valuations)
	}
	if units != m["chase.units"] {
		t.Errorf("trace units total %d, counter %d", units, m["chase.units"])
	}
	if applied != m["chase.fixes.applied"] {
		t.Errorf("trace applied total %d, counter %d", applied, m["chase.fixes.applied"])
	}
	if vals != m["chase.valuations"] {
		t.Errorf("trace valuations total %d, counter %d", vals, m["chase.valuations"])
	}
	// The node counters match the trace per node.
	perNode := map[string]uint64{}
	for _, tr := range rep.Trace {
		for n, c := range tr.NodeUnits {
			perNode[n] += uint64(c)
		}
	}
	for n, c := range perNode {
		if got := m["chase.node."+n+".units"]; got != c {
			t.Errorf("chase.node.%s.units = %d, trace says %d", n, got, c)
		}
	}
}
