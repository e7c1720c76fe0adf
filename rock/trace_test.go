package rock

import (
	"testing"
	"time"

	"github.com/rockclean/rock/internal/obs"
)

// cleanWith runs the ecommerce pipeline once with tracing on or off and
// returns the report plus the registry it ran against.
func cleanWith(t *testing.T, traced bool, workers int) (*Report, *obs.Registry) {
	t.Helper()
	opts := DefaultOptions()
	if workers > 0 {
		opts.Workers = workers
	}
	reg := obs.New()
	if traced {
		reg.EnableSpans(0)
	}
	opts.Obs = reg
	rep, err := ecommercePipeline(t, opts).Clean()
	if err != nil {
		t.Fatal(err)
	}
	return rep, reg
}

// TestTracedMatchesUntraced is the determinism matrix: span tracing only
// observes, so the traced run's fix set must be bit-identical to the
// untraced run's, serial and parallel alike.
func TestTracedMatchesUntraced(t *testing.T) {
	for _, workers := range []int{1, 4} {
		traced, _ := cleanWith(t, true, workers)
		untraced, _ := cleanWith(t, false, workers)
		if len(traced.Corrections) != len(untraced.Corrections) {
			t.Fatalf("workers=%d: corrections differ: traced=%d untraced=%d",
				workers, len(traced.Corrections), len(untraced.Corrections))
		}
		for i := range traced.Corrections {
			a, b := traced.Corrections[i], untraced.Corrections[i]
			if a.Cell != b.Cell || !a.New.Equal(b.New) || !a.Old.Equal(b.Old) {
				t.Errorf("workers=%d: correction %d differs: %+v vs %+v", workers, i, a, b)
			}
		}
		if len(traced.MergedEntities) != len(untraced.MergedEntities) {
			t.Errorf("workers=%d: merges differ: traced=%d untraced=%d",
				workers, len(traced.MergedEntities), len(untraced.MergedEntities))
		}
		for i := range traced.MergedEntities {
			a, b := traced.MergedEntities[i], untraced.MergedEntities[i]
			if len(a) != len(b) {
				t.Errorf("workers=%d: merge group %d differs: %v vs %v", workers, i, a, b)
				continue
			}
			for j := range a {
				if a[j] != b[j] {
					t.Errorf("workers=%d: merge group %d differs: %v vs %v", workers, i, a, b)
					break
				}
			}
		}
		if traced.ChaseRounds != untraced.ChaseRounds {
			t.Errorf("workers=%d: rounds differ: traced=%d untraced=%d",
				workers, traced.ChaseRounds, untraced.ChaseRounds)
		}
		if len(untraced.Metrics.Spans) != 0 {
			t.Errorf("workers=%d: untraced run retained %d spans", workers, len(untraced.Metrics.Spans))
		}
	}
}

// TestSpanTreeDepthAndAttribution pins the tentpole's structural
// acceptance criteria on one traced run: the span tree is acyclic and at
// least four levels deep (clean → phase → round → round.drain → unit →
// exec → ml), and the per-rule attribution rows sum exactly to the phase
// totals the same registry counted.
func TestSpanTreeDepthAndAttribution(t *testing.T) {
	rep, _ := cleanWith(t, true, 4)
	spans := rep.Metrics.Spans
	if len(spans) == 0 {
		t.Fatal("traced run retained no spans")
	}
	byID := make(map[uint64]obs.SpanRecord, len(spans))
	names := make(map[string]bool)
	for _, sp := range spans {
		byID[sp.ID] = sp
		names[sp.Name] = true
		if sp.Parent >= sp.ID {
			t.Fatalf("span %d (%s) has parent %d >= its own ID", sp.ID, sp.Name, sp.Parent)
		}
	}
	maxDepth := 0
	for _, sp := range spans {
		d := 1
		for sp.Parent != 0 {
			p, ok := byID[sp.Parent]
			if !ok {
				break // parent evicted by the ring; depth is a lower bound
			}
			sp, d = p, d+1
		}
		if d > maxDepth {
			maxDepth = d
		}
	}
	if maxDepth < 4 {
		t.Errorf("span tree only %d levels deep, want >= 4; names seen: %v", maxDepth, names)
	}
	for _, want := range []string{"clean", "chase", "round", "unit", "exec"} {
		if !names[want] {
			t.Errorf("span tree missing a %q level; names seen: %v", want, names)
		}
	}

	if len(rep.RuleProfile) == 0 {
		t.Fatal("traced run produced no per-rule attribution rows")
	}
	var units, vals, mls, applied int
	var wall time.Duration
	for _, rc := range rep.RuleProfile {
		units += rc.Units
		vals += rc.Valuations
		mls += rc.MLCalls
		applied += rc.Applied
		wall += rc.Wall
	}
	c := rep.Metrics.Counters
	if got, want := uint64(units), c["chase.units"]; got != want {
		t.Errorf("per-rule units sum to %d, chase.units counter is %d", got, want)
	}
	if got, want := uint64(vals), c["chase.valuations"]; got != want {
		t.Errorf("per-rule valuations sum to %d, chase.valuations counter is %d", got, want)
	}
	if got, want := uint64(mls), c["chase.ml_calls"]; got != want {
		t.Errorf("per-rule ml_calls sum to %d, chase.ml_calls counter is %d", got, want)
	}
	if units > 0 && wall == 0 {
		t.Error("per-rule wall clock never accumulated")
	}
	t.Logf("span tree: %d spans, depth %d; attribution: %d rules, %d units, %d valuations, %d ml_calls, %d applied",
		len(spans), maxDepth, len(rep.RuleProfile), units, vals, mls, applied)
}
