package rock

import (
	"fmt"
	"testing"

	"github.com/rockclean/rock/internal/ml"
	"github.com/rockclean/rock/internal/obs"
)

// mateX2Delta appends one more "Mate X2 (Limited Sold)" transaction
// carrying the wrong manufactory, so phi2 (com → mfg) must correct it
// and phi1's M_ER predicate gets exercised on the incremental path.
func mateX2Delta(t *testing.T, p *Pipeline, eid string) *Delta {
	t.Helper()
	d := p.NewDelta()
	if d.Insert("Trans", eid, S("p3"), S("s3"), S("Mate X2 (Limited Sold)"), S("Apple"), F(5200), TS(1691798400)) == nil {
		t.Fatalf("insert %s failed", eid)
	}
	return d
}

// TestIncrementalPredicationAndSpan pins the drift bug this issue is
// named for: the incremental path used to build chase.Options without
// Predication/Pred/Span, so Report.Predication stayed zero forever and
// no root span was recorded. Now both paths share Pipeline.chaseOptions
// and the pipeline's warm §5.4 layer, so a second delta must see cache
// hits from the first.
func TestIncrementalPredicationAndSpan(t *testing.T) {
	opts := DefaultOptions()
	reg := obs.New()
	reg.EnableSpans(4096)
	opts.Obs = reg
	p := ecommercePipeline(t, opts)
	if _, err := p.Clean(); err != nil {
		t.Fatal(err)
	}

	rep1, err := mateX2Delta(t, p, "t16").CleanIncrementalReport(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Predication.Lookups() == 0 {
		t.Fatal("incremental clean never probed the predication cache; options drift is back")
	}
	rep2, err := mateX2Delta(t, p, "t17").CleanIncrementalReport(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Predication.Lookups() == 0 {
		t.Fatal("second incremental clean never probed the predication cache")
	}
	if rep2.Predication.Hits == 0 {
		t.Fatal("warm pipeline layer served zero hits on the second delta")
	}
	t.Logf("delta1: %d/%d hits/lookups; delta2: %d/%d",
		rep1.Predication.Hits, rep1.Predication.Lookups(),
		rep2.Predication.Hits, rep2.Predication.Lookups())

	var root, child bool
	for _, s := range reg.Spans() {
		if s.Name == "clean.incremental" && s.Parent == 0 {
			root = true
		}
		if s.Name == "chase.incremental" && s.Parent != 0 {
			child = true
		}
	}
	if !root {
		t.Fatal("no clean.incremental root span recorded")
	}
	if !child {
		t.Fatal("no chase.incremental span parented under the root")
	}
}

// TestIncrementalPredicationOffMatchesOn: the §5.4 layer is pure
// memoisation, so incremental corrections must be bit-identical with
// the layer on or off — across multiple deltas against warm pipelines.
func TestIncrementalPredicationOffMatchesOn(t *testing.T) {
	offOpts := DefaultOptions()
	offOpts.Predication = false
	on := ecommercePipeline(t, DefaultOptions())
	off := ecommercePipeline(t, offOpts)
	if _, err := on.Clean(); err != nil {
		t.Fatal(err)
	}
	if _, err := off.Clean(); err != nil {
		t.Fatal(err)
	}
	for round, eid := range []string{"t16", "t17"} {
		a, _, err := mateX2Delta(t, on, eid).CleanIncrementalCtx(t.Context())
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := mateX2Delta(t, off, eid).CleanIncrementalCtx(t.Context())
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("round %d: %d corrections with predication on, %d off", round, len(a), len(b))
		}
		for i := range a {
			if a[i].Cell != b[i].Cell || !a[i].Old.Equal(b[i].Old) || !a[i].New.Equal(b[i].New) || a[i].IsNew != b[i].IsNew {
				t.Fatalf("round %d correction %d differs: on=%+v off=%+v", round, i, a[i], b[i])
			}
		}
	}
}

// TestIncrementalCorrectionsMatchFullScan: an incremental clean must
// report exactly the cells Materialize rewrites — which is what a
// whole-database scan returns — without scanning the database. A
// master-data validation between cleans (Pipeline.Validate) is included
// because the run itself never reaches that cell; the diff over the
// fix set's validated cells must still cover it.
func TestIncrementalCorrectionsMatchFullScan(t *testing.T) {
	p := ecommercePipeline(t, DefaultOptions())
	if _, err := p.Clean(); err != nil {
		t.Fatal(err)
	}
	// Master data arriving between cleans: t11's price is authoritative
	// and differs from the raw 9000.
	if err := p.Validate("Trans", "t11", "price", F(8400)); err != nil {
		t.Fatal(err)
	}

	before := p.DB().Clone()
	out, _, err := mateX2Delta(t, p, "t16").CleanIncrementalCtx(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("expected corrections from the delta")
	}

	// Ground truth: every cell Materialize changed, found the slow way.
	changed := make(map[CellRef][2]Value)
	for relName, rel := range before.Relations {
		after := p.DB().Rel(relName)
		for _, bt := range rel.Tuples {
			at := after.Get(bt.TID)
			for i, a := range rel.Schema.Attrs {
				if !bt.Values[i].Equal(at.Values[i]) {
					changed[CellRef{Rel: relName, TID: bt.TID, Attr: a.Name}] = [2]Value{bt.Values[i], at.Values[i]}
				}
			}
		}
	}
	seen := make(map[CellRef]bool)
	for _, c := range out {
		if seen[c.Cell] {
			t.Fatalf("duplicate correction for %s", c.Cell.String())
		}
		seen[c.Cell] = true
		if before.Rel(c.Cell.Rel).Get(c.Cell.TID) == nil {
			// A tuple inserted by this delta: verify against current DB only.
			cur, ok := p.DB().Rel(c.Cell.Rel).Value(c.Cell.TID, c.Cell.Attr)
			if !ok || !cur.Equal(c.New) {
				t.Fatalf("correction %s not materialised on new tuple", c.Cell.String())
			}
			continue
		}
		want, ok := changed[c.Cell]
		if !ok {
			t.Fatalf("correction %s reported but cell did not change", c.Cell.String())
		}
		if !c.Old.Equal(want[0]) || !c.New.Equal(want[1]) {
			t.Fatalf("correction %s values drifted: got %s→%s want %s→%s",
				c.Cell.String(), c.Old.String(), c.New.String(), want[0].String(), want[1].String())
		}
		delete(changed, c.Cell)
	}
	for ref := range changed {
		t.Fatalf("cell %s changed on disk but was not reported as a correction", ref.String())
	}

	// The validated master-data cell must be among the corrections even
	// though the delta never touched t11.
	found := false
	for _, c := range out {
		if c.Cell.Attr == "price" && c.New.Equal(F(8400)) {
			found = true
		}
	}
	if !found {
		t.Fatal("pending Validate() cell missing from incremental corrections")
	}
}

// TestKeptLayerWrapsEachModelOnce: every detection and chase over the
// pipeline's kept predication layer re-wraps the registry's models. Each
// model must keep the one wrapper the first clean built — the layer's
// wrapper list would otherwise grow with every delta — and the per-model
// counters must still add up to the layer's own.
func TestKeptLayerWrapsEachModelOnce(t *testing.T) {
	p := ecommercePipeline(t, DefaultOptions())
	if _, err := p.Clean(); err != nil {
		t.Fatal(err)
	}
	names := p.env.Models.Names()
	first := make(map[string]ml.Model, len(names))
	for _, n := range names {
		first[n], _ = p.env.Models.Get(n)
	}
	for i := 0; i < 50; i++ {
		d := mateX2Delta(t, p, fmt.Sprintf("w%d", i))
		if i%5 == 0 {
			if _, err := d.DetectIncremental(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := d.CleanIncremental(); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range names {
		if m, _ := p.env.Models.Get(n); m != first[n] {
			t.Errorf("model %s was re-wrapped by a later run", n)
		}
	}
	var hits, misses uint64
	for _, hm := range p.pred.ModelStats() {
		hits += hm[0]
		misses += hm[1]
	}
	if st := p.pred.Stats(); hits != st.Hits || misses != st.Misses || hits == 0 {
		t.Errorf("per-model totals %d/%d, layer %d/%d", hits, misses, st.Hits, st.Misses)
	}
}
