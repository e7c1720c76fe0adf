// External test package: the vectorized hot path under the full chase.
// The scale workload (null-imputing equality self-join plus constant
// pushdown, no ML) drives the posting-join and selection kernels over
// the interned columns; every cell of the workers × parallel matrix must
// land on the bit-identical fix-set snapshot.
package chase_test

import (
	"os"
	"strconv"
	"testing"

	"github.com/rockclean/rock/internal/chase"
	"github.com/rockclean/rock/internal/detect"
	"github.com/rockclean/rock/internal/obs"
	"github.com/rockclean/rock/internal/predicate"
	"github.com/rockclean/rock/internal/workload"
)

const scaleTestN = 6000

func runScale(t *testing.T, workers int, parallel bool) string {
	t.Helper()
	ds := workload.Scale(workload.Config{N: scaleTestN, Seed: 77})
	opts := chase.DefaultOptions()
	opts.Workers = workers
	opts.Parallel = parallel
	opts.UseBlocking = false
	opts.Predication = false
	eng := chase.New(predicate.NewEnv(ds.DB), ds.Rules, ds.Gamma, opts)
	rep, err := eng.Run()
	if err != nil {
		t.Fatalf("workers=%d parallel=%v: %v", workers, parallel, err)
	}
	if len(rep.Applied) == 0 {
		t.Fatalf("workers=%d parallel=%v: chase applied no fixes", workers, parallel)
	}
	return eng.Truth().Snapshot()
}

func TestScaleWorkloadDeterministicAcrossMatrix(t *testing.T) {
	want := runScale(t, 1, false)
	for _, workers := range []int{1, 4} {
		for _, parallel := range []bool{false, true} {
			if workers == 1 && !parallel {
				continue // the reference cell
			}
			got := runScale(t, workers, parallel)
			if got != want {
				t.Errorf("workers=%d parallel=%v: fix-set snapshot diverges from the serial reference", workers, parallel)
			}
		}
	}
}

// TestDetectThenChaseBuildsEachColumnOnce: detection and a chase over one
// env share its column cache. Scale's three columns (sku, region, code)
// are encoded once between them, by detection, where each used to build
// its own; Materialize refreshes what it wrote, so detecting again
// afterwards encodes nothing and finds the data clean.
func TestDetectThenChaseBuildsEachColumnOnce(t *testing.T) {
	ds := workload.Scale(workload.Config{N: 20000, Seed: 77})
	env := predicate.NewEnv(ds.DB)
	reg := obs.New()
	dOpts := detect.DefaultOptions()
	dOpts.UseBlocking = false
	dOpts.Obs = reg
	if _, err := detect.New(env, ds.Rules, dOpts).Detect(); err != nil {
		t.Fatal(err)
	}
	if got := reg.CounterValue("exec.columns.built"); got != 3 {
		t.Fatalf("detection built %d columns, want 3", got)
	}
	opts := chase.DefaultOptions()
	opts.UseBlocking = false
	opts.Predication = false
	opts.Obs = reg
	eng := chase.New(env, ds.Rules, ds.Gamma, opts)
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got := reg.CounterValue("exec.columns.built"); got != 3 {
		t.Fatalf("the chase built %d more columns, want none", got-3)
	}
	if eng.Materialize() == 0 || reg.CounterValue("exec.columns.refreshed") == 0 {
		t.Fatal("Materialize wrote nothing or refreshed no column")
	}
	errs, err := detect.New(env, ds.Rules, dOpts).Detect()
	if err != nil {
		t.Fatal(err)
	}
	if len(errs) != 0 || reg.CounterValue("exec.columns.built") != 3 {
		t.Fatalf("detection after Materialize: %d errors and %d builds, want 0 and 3", len(errs), reg.CounterValue("exec.columns.built"))
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
