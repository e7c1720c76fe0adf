package exec

import (
	"testing"

	"github.com/rockclean/rock/internal/must"
	"github.com/rockclean/rock/internal/predicate"
)

// BenchmarkPostingJoin times the full enumeration of the 5000×5000
// cross-type equijoin through the posting-list join.
func BenchmarkPostingJoin(b *testing.B) {
	env := mixedNumericEnv(b, 5000, 5000, 1000)
	r := must.Rule("A(t) ^ B(s) ^ t.x = s.y -> t.eid = s.eid", env.DB)
	r.ID = "bench-join"
	e := New(env)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(r, Options{}, func(h *predicate.Valuation) bool { return true }); err != nil {
			b.Fatal(err)
		}
	}
}
