package rock

import (
	"context"
	"testing"
	"time"
)

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
