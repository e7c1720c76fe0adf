// Package rockbench holds the testing.B benchmarks that regenerate the
// paper's evaluation (one bench per table/figure panel; see DESIGN.md's
// experiment index). Run with:
//
//	go test -bench=. -benchmem
//
// Each bench times the hot path of one panel; cmd/rockbench prints the
// full row/series tables (go run ./cmd/rockbench -exp all). Inputs are
// intentionally small so a full -bench=. sweep stays laptop-fast; scale
// with rockbench's -n flag for larger runs.
package rockbench

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"github.com/rockclean/rock/internal/baselines"
	"github.com/rockclean/rock/internal/chase"
	"github.com/rockclean/rock/internal/detect"
	"github.com/rockclean/rock/internal/discovery"
	"github.com/rockclean/rock/internal/quality"
	"github.com/rockclean/rock/internal/workload"
)

const benchN = 200

func benchConfig() workload.Config { return workload.Config{N: benchN, Seed: 2024} }

// --- Exp-1: rule discovery (Figures 4(a)-(c)) ---

func benchDiscovery(b *testing.B, ds *workload.Dataset, sys baselines.System) {
	b.Helper()
	bench := baselines.NewBench(ds, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Discover(bench); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4aBankDiscovery(b *testing.B) {
	benchDiscovery(b, workload.Bank(benchConfig()), baselines.Rock())
}

func BenchmarkFig4aBankDiscoveryES(b *testing.B) {
	benchDiscovery(b, workload.Bank(benchConfig()), baselines.NewES())
}

func BenchmarkFig4bLogisticsDiscovery(b *testing.B) {
	benchDiscovery(b, workload.Logistics(benchConfig()), baselines.Rock())
}

func BenchmarkFig4cSalesDiscovery(b *testing.B) {
	benchDiscovery(b, workload.Sales(benchConfig()), baselines.Rock())
}

// --- Exp-2: error detection (Figures 4(d)-(h)) ---

func benchDetect(b *testing.B, ds *workload.Dataset, sys baselines.System) {
	b.Helper()
	bench := baselines.NewBench(ds, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sys.Detect(bench); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4dBankDetect(b *testing.B) {
	benchDetect(b, workload.Bank(benchConfig()), baselines.Rock())
}

func BenchmarkFig4eLogisticsDetect(b *testing.B) {
	benchDetect(b, workload.Logistics(benchConfig()), baselines.Rock())
}

func BenchmarkFig4fSalesDetect(b *testing.B) {
	benchDetect(b, workload.Sales(benchConfig()), baselines.Rock())
}

func BenchmarkFig4gDetectionTimeRock(b *testing.B) {
	benchDetect(b, workload.Bank(benchConfig()), baselines.Rock())
}

func BenchmarkFig4gDetectionTimeSparkSQL(b *testing.B) {
	benchDetect(b, workload.Bank(benchConfig()), baselines.NewSparkSQL())
}

func BenchmarkFig4gDetectionTimeT5s(b *testing.B) {
	benchDetect(b, workload.Bank(benchConfig()), baselines.NewT5s())
}

func BenchmarkFig4gDetectionTimeRB(b *testing.B) {
	benchDetect(b, workload.Bank(benchConfig()), baselines.NewRB())
}

// BenchmarkFig4hScaleDetect times the detection behind Figure 4(h) on
// GOMAXPROCS workers; the per-n series prints via `rockbench -exp fig4h`.
func BenchmarkFig4hScaleDetect(b *testing.B) {
	ds := workload.Logistics(benchConfig())
	n := runtime.GOMAXPROCS(0)
	bench := baselines.NewBench(ds, n)
	o := detect.DefaultOptions()
	o.Workers = n
	d := detect.New(bench.Env, bench.Rules, o)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := d.DetectCtx(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Exp-3: error correction (Figures 4(i)-(l)) ---

func benchCorrect(b *testing.B, mk func() *workload.Dataset, sys baselines.System) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		bench := baselines.NewBench(mk(), 4) // fresh clone: Correct mutates
		b.StartTimer()
		if _, err := sys.Correct(bench); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4iCorrectRock(b *testing.B) {
	benchCorrect(b, func() *workload.Dataset { return workload.Bank(benchConfig()) }, baselines.Rock())
}

func BenchmarkFig4jSalesTasksCorrect(b *testing.B) {
	benchCorrect(b, func() *workload.Dataset { return workload.Sales(benchConfig()) }, baselines.Rock())
}

func BenchmarkFig4kCorrectRock(b *testing.B) {
	benchCorrect(b, func() *workload.Dataset { return workload.Bank(benchConfig()) }, baselines.Rock())
}

func BenchmarkFig4kCorrectRockSeq(b *testing.B) {
	benchCorrect(b, func() *workload.Dataset { return workload.Bank(benchConfig()) }, baselines.RockSeq())
}

func BenchmarkFig4kCorrectSparkSQL(b *testing.B) {
	benchCorrect(b, func() *workload.Dataset { return workload.Bank(benchConfig()) }, baselines.NewSparkSQL())
}

func BenchmarkFig4lScaleCorrect(b *testing.B) {
	ds := workload.Logistics(benchConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		bench := baselines.NewBench(ds, 20)
		opts := chase.DefaultOptions()
		opts.Workers = 20
		opts.Oracle = bench.GoldOracle()
		eng := chase.New(bench.Env, bench.Rules, bench.DS.Gamma, opts)
		b.StartTimer()
		if _, err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChaseParallel measures the real wall-clock of the chase with
// work units executed on a goroutine pool of 1, 2, 4, and 8 workers
// (Figure 4(l)). The speedup observed scales with the physical cores of
// the host: variants with more workers than cores only measure pool
// overhead.
func BenchmarkChaseParallel(b *testing.B) {
	workloads := []struct {
		name string
		mk   func() *workload.Dataset
	}{
		{"ecommerce", workload.Ecommerce},
		{"logistics", func() *workload.Dataset { return workload.Logistics(benchConfig()) }},
	}
	for _, wl := range workloads {
		ds := wl.mk()
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/workers=%d", wl.name, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					bench := baselines.NewBench(ds, workers)
					opts := chase.DefaultOptions()
					opts.Workers = workers
					opts.Parallel = workers > 1
					opts.Oracle = bench.GoldOracle()
					eng := chase.New(bench.Env, bench.Rules, bench.DS.Gamma, opts)
					b.StartTimer()
					if _, err := eng.Run(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- Ablation benches (DESIGN.md design choices) ---

// BenchmarkAblationBlocking vs BenchmarkAblationNoBlocking: the LSH
// filter-and-verify strategy for ML predicates (paper §5.4).
func BenchmarkAblationBlocking(b *testing.B) {
	benchDetect(b, workload.Bank(benchConfig()), baselines.Rock())
}

func BenchmarkAblationNoBlocking(b *testing.B) {
	v := baselines.Rock()
	v.Blocking = false
	v.VariantName = "Rock_noblock"
	benchDetect(b, workload.Bank(benchConfig()), v)
}

// BenchmarkAblationLazyChase vs BenchmarkAblationEagerChase: lazy rule
// activation + dirty-tuple filtering (paper §4.1).
func BenchmarkAblationLazyChase(b *testing.B) {
	benchCorrect(b, func() *workload.Dataset { return workload.Bank(benchConfig()) }, baselines.Rock())
}

func BenchmarkAblationEagerChase(b *testing.B) {
	v := baselines.Rock()
	v.Lazy = false
	v.VariantName = "Rock_eager"
	benchCorrect(b, func() *workload.Dataset { return workload.Bank(benchConfig()) }, v)
}

// BenchmarkAblationSampling vs BenchmarkAblationNoSampling: multi-round
// sampled discovery (paper §5.2).
func BenchmarkAblationSampling(b *testing.B) {
	ds := workload.Bank(benchConfig())
	bench := baselines.NewBench(ds, 4)
	opts := discovery.DefaultOptions()
	opts.SampleRatio = 0.3
	opts.MaxPairs = 30000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := discovery.NewMiner(bench.Env, "Customer", opts)
		if _, _, err := m.Discover(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationNoSampling(b *testing.B) {
	ds := workload.Bank(benchConfig())
	bench := baselines.NewBench(ds, 4)
	opts := discovery.DefaultOptions()
	opts.SampleRatio = 1.0
	opts.MaxPairs = 120000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := discovery.NewMiner(bench.Env, "Customer", opts)
		if _, _, err := m.Discover(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- accuracy guards: the paper's quality claims hold at bench scale ---

func TestBenchShapeRockBeatsBaselinesOnCorrection(t *testing.T) {
	if testing.Short() {
		t.Skip("integration shape check")
	}
	score := func(sys baselines.System) float64 {
		bench := baselines.NewBench(workload.Bank(benchConfig()), 4)
		corr, err := sys.Correct(bench)
		if err != nil {
			t.Fatal(err)
		}
		return quality.ScoreCorrection(bench.DS.Gold, corr, bench.RawValue).Overall().F1()
	}
	rock := score(baselines.Rock())
	noC := score(baselines.RockNoC())
	rb := score(baselines.NewRB())
	t.Logf("correction F1 at bench scale: Rock=%.3f Rock_noC=%.3f RB=%.3f", rock, noC, rb)
	if rock <= rb || rock < noC {
		t.Errorf("paper shape violated: Rock=%.3f Rock_noC=%.3f RB=%.3f", rock, noC, rb)
	}
}
