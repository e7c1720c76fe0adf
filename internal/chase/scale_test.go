// External test package: the vectorized hot path under the full chase.
// The scale workload (null-imputing equality self-join plus constant
// pushdown, no ML) drives the posting-join and selection kernels above
// the interning gate; every cell of the workers × parallel matrix must
// land on the bit-identical fix-set snapshot, and a starved memory
// budget must spill columns to disk without changing a single fix.
package chase_test

import (
	"os"
	"strconv"
	"testing"

	"github.com/rockclean/rock/internal/chase"
	"github.com/rockclean/rock/internal/obs"
	"github.com/rockclean/rock/internal/predicate"
	"github.com/rockclean/rock/internal/workload"
)

const scaleTestN = 6000

func runScale(t *testing.T, workers int, parallel bool, budget int64, reg *obs.Registry) string {
	t.Helper()
	ds := workload.Scale(workload.Config{N: scaleTestN, Seed: 77})
	opts := chase.DefaultOptions()
	opts.Workers = workers
	opts.Parallel = parallel
	opts.UseBlocking = false
	opts.Predication = false
	opts.MemBudget = budget
	if budget > 0 {
		opts.SpillDir = t.TempDir()
	}
	opts.Obs = reg
	eng := chase.New(predicate.NewEnv(ds.DB), ds.Rules, ds.Gamma, opts)
	rep, err := eng.Run()
	if err != nil {
		t.Fatalf("workers=%d parallel=%v budget=%d: %v", workers, parallel, budget, err)
	}
	if len(rep.Applied) == 0 {
		t.Fatalf("workers=%d parallel=%v budget=%d: chase applied no fixes", workers, parallel, budget)
	}
	return eng.Truth().Snapshot()
}

func TestScaleWorkloadDeterministicAcrossMatrix(t *testing.T) {
	want := runScale(t, 1, false, 0, nil)
	for _, workers := range []int{1, 4} {
		for _, parallel := range []bool{false, true} {
			if workers == 1 && !parallel {
				continue // the reference cell
			}
			got := runScale(t, workers, parallel, 0, nil)
			if got != want {
				t.Errorf("workers=%d parallel=%v: fix-set snapshot diverges from the serial reference", workers, parallel)
			}
		}
	}
}

func TestScaleWorkloadSpillPreservesFixes(t *testing.T) {
	want := runScale(t, 4, true, 0, nil)
	reg := obs.New()
	got := runScale(t, 4, true, 1, reg) // 1-byte budget: every column spills
	if got != want {
		t.Fatal("spilled run diverges from the resident run")
	}
	if reg.CounterValue("exec.spill.columns") == 0 {
		t.Fatal("a 1-byte budget must force columns onto disk")
	}
}

// BenchmarkScaleChase times one full chase over the scale workload;
// SCALE_BENCH_N moves its size (the n-sweep behind EXPERIMENTS.md's
// historical 1.25×10⁶ → 10⁷ curve).
func BenchmarkScaleChase(b *testing.B) {
	n := scaleTestN
	if s := os.Getenv("SCALE_BENCH_N"); s != "" {
		if v, err := strconv.Atoi(s); err == nil {
			n = v
		}
	}
	ds := workload.Scale(workload.Config{N: n, Seed: 77})
	opts := chase.DefaultOptions()
	opts.Workers = 4
	opts.UseBlocking = false
	opts.Predication = false
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		env := predicate.NewEnv(ds.DB.Clone())
		eng := chase.New(env, ds.Rules, ds.Gamma, opts)
		b.StartTimer()
		if _, err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
