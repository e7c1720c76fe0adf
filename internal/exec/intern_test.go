package exec

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"github.com/rockclean/rock/internal/data"
	"github.com/rockclean/rock/internal/must"
	"github.com/rockclean/rock/internal/predicate"
)

// mixedNumericEnv builds A(x int) and B(y float) whose values overlap
// numerically: A carries integers 0..mod-1, B carries the same magnitudes
// as floats (except every third tuple, shifted by 0.5 so it never matches
// an integer). Cross-type equality (I(5) = F(5)) is true under
// Value.Equal, so every index — hash join, probe join, dictionary — must
// treat them as one value (before keys were canonicalised the hash join
// silently dropped every int↔float match the probe join found).
func mixedNumericEnv(t testing.TB, nA, nB, mod int) *predicate.Env {
	t.Helper()
	a := data.NewRelation(must.Schema("A", data.Attribute{Name: "x", Type: data.TInt}))
	b := data.NewRelation(must.Schema("B", data.Attribute{Name: "y", Type: data.TFloat}))
	for i := 0; i < nA; i++ {
		a.Insert(fmt.Sprintf("a%d", i), data.I(int64(i%mod)))
	}
	for i := 0; i < nB; i++ {
		v := float64(i % mod)
		if i%3 == 0 {
			v += 0.5
		}
		b.Insert(fmt.Sprintf("b%d", i), data.F(v))
	}
	db := data.NewDatabase()
	db.Add(a)
	db.Add(b)
	return predicate.NewEnv(db)
}

// countdownCtx reports the context cancelled after its Err method has
// been consulted a fixed number of times — it verifies cancellation is
// actually polled during enumeration, not just checked once up front.
type countdownCtx struct {
	context.Context
	remaining atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.remaining.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestInternCancellationAllCleanDirtySet is the regression for the
// emit-counter bug: cancellation used to be polled on the valuation
// count, but the incremental dirty filter returns before that count
// increments — an enumeration whose valuations are all clean (dirty set
// present but empty) never advanced the counter and so never observed
// cancellation. Polling on bindings (checkAt calls) makes the countdown
// context fire, also now that P0 rejects most bindings before emit.
// The rule is ML-only (no equality predicate, blocking off), so no pair
// driver pre-filters by dirtiness: the generic nested-loop path runs and
// every valuation reaches emit, where the dirty filter rejects it.
func TestInternCancellationAllCleanDirtySet(t *testing.T) {
	env, _ := transEnv(t, 60)
	r := must.Rule("Trans(t) ^ Trans(s) ^ M_ER(t[com], s[com]) -> t.mfg = s.mfg", env.DB)
	r.ID = "ml-only"
	ctx := &countdownCtx{Context: context.Background()}
	ctx.remaining.Store(3) // allow three polls, then cancel on the fourth
	e := New(env)
	st, err := e.Run(r, Options{
		Ctx:   ctx,
		Dirty: map[string]map[int]bool{"Trans": {}},
	}, func(h *predicate.Valuation) bool { return true })
	if err != context.Canceled {
		t.Fatalf("all-clean enumeration never observed cancellation: err=%v (valuations=%d, enumerated=%d)",
			err, st.Valuations, st.Enumerated)
	}
	if st.Valuations != 0 {
		t.Fatalf("dirty filter should have rejected every valuation, got %d", st.Valuations)
	}
}

// TestInternPoolsReusableAcrossRuns guards the scratch pools: an early
// exit (the callback stops after 7 valuations) followed by two full runs
// must not corrupt each other's candidate or pair buffers.
func TestInternPoolsReusableAcrossRuns(t *testing.T) {
	env := mixedNumericEnv(t, 5000, 5000, 1000)
	r := must.Rule("A(t) ^ B(s) ^ t.x = s.y -> t.eid = s.eid", env.DB)
	r.ID = "reuse"
	e := New(env)
	seen := 0
	first, err := e.Run(r, Options{}, func(h *predicate.Valuation) bool { seen++; return seen < 7 })
	if err != nil {
		t.Fatal(err)
	}
	if first.Valuations != 7 {
		t.Fatalf("early-exit run emitted %d valuations, want 7", first.Valuations)
	}
	var a, b Stats
	if a, err = e.Run(r, Options{}, func(h *predicate.Valuation) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if b, err = e.Run(r, Options{}, func(h *predicate.Valuation) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if a.Valuations == 0 || a.Valuations != b.Valuations {
		t.Fatalf("repeated runs disagree: %d vs %d valuations", a.Valuations, b.Valuations)
	}
}
