package rock_test

import (
	"testing"

	"github.com/rockclean/rock/internal/serve"
	"github.com/rockclean/rock/internal/workload"
	"github.com/rockclean/rock/rock"
)

// BenchmarkCleanApps cleans the three generated applications (Bank,
// Logistics, Sales at N = 1 000) through Pipeline.Clean, back to back,
// once per op. Generation and model training stay outside the timer; the
// allocation figures (-benchmem, or b.ReportAllocs here) are what a
// change to the executor's or the chase's per-valuation work moves.
//
//	go test -run '^$' -bench CleanApps -benchtime 5x ./rock/
func BenchmarkCleanApps(b *testing.B) {
	gens := []func(workload.Config) *workload.Dataset{workload.Bank, workload.Logistics, workload.Sales}
	opts := rock.DefaultOptions()
	opts.Workers = 2
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		pipes := make([]*rock.Pipeline, len(gens))
		for k, gen := range gens {
			p, err := serve.PipelineFromDataset(gen(workload.Config{N: 1000, Seed: 2024}), opts)
			if err != nil {
				b.Fatal(err)
			}
			pipes[k] = p
		}
		b.StartTimer()
		for _, p := range pipes {
			if _, err := p.Clean(); err != nil {
				b.Fatal(err)
			}
		}
	}
}
