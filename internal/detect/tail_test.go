package detect

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/rockclean/rock/internal/data"
	"github.com/rockclean/rock/internal/must"
	"github.com/rockclean/rock/internal/ree"
	"github.com/rockclean/rock/internal/workload"
)

// TestCulpritTailMatchesStringKeyedTail: on generated unit slots over a
// generated database, the pointer-free tail returns what the string-keyed
// one (strTail) does — the same errors, field by field, in the same order,
// with the same partial flag. The slots mix duplicates across rules and
// units, self-edges, null cells, ER pairs, errors of no, one and three
// cells, cells of a deleted tuple, one-cell errors on cells the cover also
// blames, and units cut short by cancellation. The relation names ("R[" sorts
// after "R1["), TIDs past 9 ("10" sorts before "9") and a column holding
// 5 as an int, a float and a time keep string order and id order apart.
func TestCulpritTailMatchesStringKeyedTail(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	db := data.NewDatabase()
	for _, name := range []string{"R", "R1"} {
		rel := data.NewRelation(must.Schema(name,
			data.Attribute{Name: "a", Type: data.TString},
			data.Attribute{Name: "ab", Type: data.TInt},
		))
		for i := 0; i < 25; i++ {
			a := []data.Value{data.S("x"), data.S("xy"), data.S("yx"), data.S("xyz"), data.Null(data.TString)}[rng.Intn(5)]
			n := []data.Value{data.I(5), data.F(5), data.TS(5), data.I(12), data.Null(data.TInt)}[rng.Intn(5)]
			rel.Insert(fmt.Sprintf("%s-%d", name, i), a, n)
		}
		rel.Delete(3)
		db.Add(rel)
	}
	ids := newCellIDs(db)
	cellOf := func() data.CellRef {
		return data.CellRef{Rel: []string{"R", "R1"}[rng.Intn(2)], TID: rng.Intn(25), Attr: []string{"a", "ab"}[rng.Intn(2)]}
	}
	tasks := []ree.Task{ree.TaskCR, ree.TaskMI, ree.TaskTD}
	var selfEdges, wide, empty, cut, blamedOnce int
	for g := 0; g < 300; g++ {
		var results []*unitResult
		var seen []*Error
		for u := rng.Intn(6); u >= 0; u-- {
			res := &unitResult{}
			for i := rng.Intn(40); i > 0; i-- {
				e := &Error{RuleID: fmt.Sprintf("r%d", rng.Intn(4)), Task: tasks[rng.Intn(3)]}
				switch k := rng.Intn(14); {
				case k == 0:
					e.Task = ree.TaskER
					e.DupEIDs = [2]string{fmt.Sprint("e", rng.Intn(4)), fmt.Sprint("f", rng.Intn(4))}
				case k == 1:
					empty++
				case k == 2 || k == 3:
					e.Cells = []data.CellRef{cellOf()}
				case k == 4:
					c := cellOf()
					e.Cells = []data.CellRef{c, c}
					selfEdges++
				case k == 5:
					e.Cells = []data.CellRef{cellOf(), cellOf(), cellOf()}
					wide++
				case k == 6 && len(seen) > 0:
					// The same evidence again, reported by another rule.
					d := *seen[rng.Intn(len(seen))]
					d.RuleID = fmt.Sprintf("r%d", rng.Intn(4))
					e = &d
				default:
					e.Cells = []data.CellRef{cellOf(), cellOf()}
				}
				seen = append(seen, e)
				res.errs = append(res.errs, e)
				res.keys = append(res.keys, keyOf(e, ids.id))
			}
			if rng.Intn(10) == 0 {
				res.err = context.Canceled
				cut++
			}
			results = append(results, res)
		}
		want, wantPartial, err := strTail(results, db)
		if err != nil {
			t.Fatal(err)
		}
		got, partial, err := tail(results, db)
		if err != nil {
			t.Fatal(err)
		}
		if partial != wantPartial || !slices.EqualFunc(got, want, func(a, b *Error) bool {
			return a.RuleID == b.RuleID && a.Task == b.Task && a.DupEIDs == b.DupEIDs && slices.Equal(a.Cells, b.Cells)
		}) {
			t.Fatalf("graph %d: got (partial %v)\n%v\nwant (partial %v)\n%v", g, partial, keyAndRule(got), wantPartial, keyAndRule(want))
		}
		// A one-cell error on a cell the cover would blame: the culprit is
		// the same error and is reported once, by the one-cell rule.
		for _, e := range want {
			if len(e.Cells) == 1 && slices.ContainsFunc(seen, func(s *Error) bool {
				return len(s.Cells) == 2 && (s.Cells[0] == e.Cells[0] || s.Cells[1] == e.Cells[0])
			}) && slices.ContainsFunc(seen, func(s *Error) bool { return len(s.Cells) == 1 && s.Cells[0] == e.Cells[0] }) {
				blamedOnce++
			}
		}
	}
	if selfEdges == 0 || wide == 0 || empty == 0 || cut == 0 || blamedOnce == 0 {
		t.Fatalf("generator missed a case: %d self-edges, %d wide, %d empty, %d cut units, %d one-cell errors on graph cells", selfEdges, wide, empty, cut, blamedOnce)
	}
}

// TestCulpritTailAllocs: detection's tail allocates per graph cell and per
// error it returns, not per violation. On Logistics at N = 1000 (about 15k
// raw violations, about 360 errors returned) it stays under a quarter of
// the raw count; a key or a string built per violation would cost at
// least one allocation each.
func TestCulpritTailAllocs(t *testing.T) {
	ds := workload.Logistics(workload.Config{N: 1000, Seed: 2024})
	env := ds.BuildEnv()
	results, _, err := New(env, ds.Rules, DefaultOptions()).violations(context.Background(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	raw := 0
	for _, res := range results {
		raw += len(res.errs)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, _, err := tail(results, env.DB); err != nil {
			t.Fatal(err)
		}
	})
	if raw < 10000 || allocs > float64(raw)/4 {
		t.Errorf("the tail allocates %v times for %d raw violations; want at most a quarter", allocs, raw)
	}
}
