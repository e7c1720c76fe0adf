package rock

import (
	"sort"
	"testing"

	"github.com/rockclean/rock/internal/baselines"
	"github.com/rockclean/rock/internal/chase"
	"github.com/rockclean/rock/internal/obs"
	"github.com/rockclean/rock/internal/truth"
	"github.com/rockclean/rock/internal/workload"
)

// fullScanCorrections is the reference diff: every tuple cell of the
// database compared against U's validated value, sorted by cell — the
// whole-database scan the batch clean ran before its corrections came
// from the fix set's validated cells.
func fullScanCorrections(db *Database, u *truth.FixSet) []Correction {
	var out []Correction
	for relName, rel := range db.Relations {
		for _, t := range rel.Tuples {
			for i, a := range rel.Schema.Attrs {
				v, ok := u.Cell(relName, t.EID, a.Name)
				if !ok || v.Equal(t.Values[i]) {
					continue
				}
				out = append(out, Correction{
					Cell:  CellRef{Rel: relName, TID: t.TID, Attr: a.Name},
					Old:   t.Values[i],
					New:   v,
					IsNew: t.Values[i].IsNull(),
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Cell.String() < out[j].Cell.String() })
	return out
}

// TestCleanCorrectionsMatchFullScan: a batch clean's corrections are the
// reference full scan's, in the same order, and exactly the cells the
// database changed across the clean — on the four applications at
// N = 300 (with Γ and the gold oracle, so conflict resolution rewrites
// validated cells) and on Scale at 20k.
func TestCleanCorrectionsMatchFullScan(t *testing.T) {
	cfg := workload.Config{N: 300, Seed: 7}
	for _, tc := range []struct {
		name string
		ds   *workload.Dataset
	}{
		{"bank", workload.Bank(cfg)},
		{"logistics", workload.Logistics(cfg)},
		{"sales", workload.Sales(cfg)},
		{"ecommerce", workload.Ecommerce()},
		{"scale", workload.Scale(workload.Config{N: 20000, Seed: 77})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bench := baselines.NewBench(tc.ds, 4)
			opts := DefaultOptions()
			opts.Oracle = bench.GoldOracle()
			p := NewPipelineOver(bench.Env, opts)
			p.rules = bench.Rules
			p.eidRefs = bench.DS.EIDRefs
			p.gamma = bench.DS.Gamma.Clone()

			// The same chase, diffed the slow way and not materialised.
			ref := chase.New(p.env, p.rules, p.gamma, p.chaseOptions(p.predication(), obs.New(), nil))
			if _, err := ref.RunCtx(t.Context()); err != nil {
				t.Fatal(err)
			}
			want := fullScanCorrections(p.db, ref.Truth())
			if len(want) == 0 {
				t.Fatal("the reference found no correction")
			}

			before := p.db.Clone()
			rep, err := p.CleanCtx(t.Context())
			if err != nil {
				t.Fatal(err)
			}
			got := rep.Corrections
			if len(got) != len(want) {
				t.Fatalf("%d corrections, the full scan %d", len(got), len(want))
			}
			for i := range want {
				g, w := got[i], want[i]
				if g.Cell != w.Cell || !g.Old.Equal(w.Old) || !g.New.Equal(w.New) || g.IsNew != w.IsNew {
					t.Fatalf("correction %d: got %s %s→%s, full scan %s %s→%s", i,
						g.Cell.String(), g.Old.String(), g.New.String(), w.Cell.String(), w.Old.String(), w.New.String())
				}
			}

			// The corrections are exactly the cells Materialize wrote.
			changed := 0
			for relName, rel := range before.Relations {
				after := p.db.Rel(relName)
				for _, bt := range rel.Tuples {
					at := after.Get(bt.TID)
					for i := range rel.Schema.Attrs {
						if !bt.Values[i].Equal(at.Values[i]) {
							changed++
						}
					}
				}
			}
			for _, c := range got {
				v, _ := before.Rel(c.Cell.Rel).Value(c.Cell.TID, c.Cell.Attr)
				now, _ := p.db.Rel(c.Cell.Rel).Value(c.Cell.TID, c.Cell.Attr)
				if !v.Equal(c.Old) || !now.Equal(c.New) {
					t.Fatalf("correction %s %s→%s, database %s→%s",
						c.Cell.String(), c.Old.String(), c.New.String(), v.String(), now.String())
				}
			}
			if changed != len(got) {
				t.Fatalf("the database changed %d cells, the clean reported %d", changed, len(got))
			}
		})
	}
}
