package chase

import (
	"context"
	"testing"

	"github.com/rockclean/rock/internal/data"
	"github.com/rockclean/rock/internal/must"
	"github.com/rockclean/rock/internal/ree"
	"github.com/rockclean/rock/internal/truth"
)

// TestRunIncremental exercises the incremental correction mode: after a
// batch chase converges, new dirty tuples arrive (ΔD) and only they (plus
// whatever their fixes activate) are re-chased.
func TestRunIncremental(t *testing.T) {
	env, rel := personEnv(t)
	rel.Insert("p1", data.S("Jones"), data.S("C"), data.S("addr one"), data.S("single"), data.Null(data.TString))
	rel.Insert("p2", data.S("Jones"), data.S("C"), data.Null(data.TString), data.S("single"), data.Null(data.TString))
	r := must.Rule("Person(t) ^ Person(s) ^ t.LN = s.LN ^ t.FN = s.FN ^ null(s.home) -> s.home = t.home", env.DB)
	r.ID = "mi"
	eng := New(env, []*ree.Rule{r}, truth.NewFixSet(), DefaultOptions())
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if v, ok := eng.Truth().Cell("Person", "p2", "home"); !ok || v.Str() != "addr one" {
		t.Fatalf("batch imputation failed: %v %v", v, ok)
	}
	beforeFixes := len(eng.Report().Applied)
	beforeVals := eng.Report().Valuations

	// ΔD: a new namesake with a missing home arrives.
	nt := rel.Insert("p9", data.S("Jones"), data.S("C"), data.Null(data.TString), data.S("single"), data.Null(data.TString))
	dirty := map[string]map[int]bool{"Person": {nt.TID: true}}
	if _, err := eng.RunIncrementalCtx(context.Background(), dirty); err != nil {
		t.Fatal(err)
	}
	if v, ok := eng.Truth().Cell("Person", "p9", "home"); !ok || v.Str() != "addr one" {
		t.Errorf("incremental imputation failed: %v %v", v, ok)
	}
	if len(eng.Report().Applied) <= beforeFixes {
		t.Error("incremental run must add fixes")
	}
	// The incremental rounds did enumerate (the dirty filter admits pairs
	// touching the new tuple); exec's dirty tests verify the filtering.
	if eng.Report().Valuations == beforeVals {
		t.Error("incremental run must enumerate the dirty tuple's pairs")
	}
	// Empty delta is a no-op.
	if _, err := eng.RunIncrementalCtx(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
}
