package rock

import (
	"context"
	"testing"
	"time"

	"github.com/rockclean/rock/internal/cluster"
)

// TestFailedDetectionUnitIsReported: a detection unit that panics past
// MaxRetries is not dropped — CleanCtx reports it on Report.UnitErrors,
// with the RuleID of the rule it was planned for, and marks the run
// partial. Unit 0 of detection is the first rule's first block
// combination; its three panics are spent before the chase starts, so
// the chase adds no failure of its own.
func TestFailedDetectionUnitIsReported(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxRetries = 2
	p := ecommercePipeline(t, opts)
	p.faults = cluster.NewFaultInjector()
	p.faults.PanicUnit(0, 3)
	rep, err := p.Clean()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.UnitErrors) != 1 {
		t.Fatalf("want exactly one UnitError, got %v", rep.UnitErrors)
	}
	ue := rep.UnitErrors[0]
	if ue.UnitID != 0 || ue.RuleID != p.Rules()[0].ID || ue.Attempts != 3 {
		t.Errorf("UnitError = %+v, want unit 0 of rule %s after 3 attempts", ue, p.Rules()[0].ID)
	}
	if !rep.Partial {
		t.Error("a run with a failed detection unit must be partial")
	}
}

// TestDeadlineExpiredCleanIsPartial: a context deadline that has no
// chance to fit the run makes CleanCtx return a partial report with a nil
// error — graceful degradation, not failure.
func TestDeadlineExpiredCleanIsPartial(t *testing.T) {
	db := testDB(t)
	p := NewPipeline(db)
	p.TrainCorrelationModels()
	p.MustAddRule("Trans(t) ^ Trans(s) ^ t.com = s.com -> t.mfg = s.mfg")
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	rep, err := p.CleanCtx(ctx)
	if err != nil {
		t.Fatalf("expired deadline must degrade, not fail: %v", err)
	}
	if !rep.Partial {
		t.Fatal("expired deadline must yield Report.Partial")
	}
}

// TestCleanCtxCancelledIsPartial: same degradation through an explicit
// cancel instead of a deadline.
func TestCleanCtxCancelledIsPartial(t *testing.T) {
	db := testDB(t)
	p := NewPipeline(db)
	p.TrainCorrelationModels()
	p.MustAddRule("Trans(t) ^ Trans(s) ^ t.com = s.com -> t.mfg = s.mfg")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := p.CleanCtx(ctx)
	if err != nil {
		t.Fatalf("cancelled context must degrade, not fail: %v", err)
	}
	if !rep.Partial {
		t.Fatal("cancelled context must yield Report.Partial")
	}
}

// TestCleanWithoutDeadlineNotPartial guards the flag's default: an
// unconstrained run must not report Partial.
func TestCleanWithoutDeadlineNotPartial(t *testing.T) {
	db := testDB(t)
	p := NewPipeline(db)
	p.TrainCorrelationModels()
	p.MustAddRule("Trans(t) ^ Trans(s) ^ t.com = s.com -> t.mfg = s.mfg")
	rep, err := p.Clean()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Partial {
		t.Fatal("unconstrained run must not be Partial")
	}
}

// TestCleanIncrementalCtxCancelledIsPartial covers the incremental path.
func TestCleanIncrementalCtxCancelledIsPartial(t *testing.T) {
	db := testDB(t)
	p := NewPipeline(db)
	p.TrainCorrelationModels()
	p.MustAddRule("Trans(t) ^ Trans(s) ^ t.com = s.com -> t.mfg = s.mfg")
	if _, err := p.Clean(); err != nil {
		t.Fatal(err)
	}
	d := p.NewDelta()
	d.Insert("Trans", "p9", S("Mate X2"), S("Nokia"), F(5200))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, partial, err := d.CleanIncrementalCtx(ctx)
	if err != nil {
		t.Fatalf("cancelled incremental clean must degrade, not fail: %v", err)
	}
	if !partial {
		t.Fatal("cancelled incremental clean must report partial")
	}
}
