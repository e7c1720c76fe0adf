package benchkit

import (
	"testing"

	"github.com/rockclean/rock/internal/baselines"
	"github.com/rockclean/rock/internal/chase"
)

// chaseApplied builds a fresh Logistics bench and returns the chase's
// applied-fix strings in application order.
func chaseApplied(t *testing.T, cfg Config, parallel bool) []string {
	t.Helper()
	ds, err := appDataset("Logistics", cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := baselines.NewBench(ds, cfg.Workers)
	opts := chase.DefaultOptions()
	opts.Workers = cfg.Workers
	opts.Parallel = parallel
	opts.Oracle = b.GoldOracle()
	opts.EIDRefs = b.DS.EIDRefs
	eng := chase.New(b.Env, b.Rules, b.DS.Gamma, opts)
	rep, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(rep.Applied))
	for i, f := range rep.Applied {
		out[i] = f.String()
	}
	return out
}

// TestChaseDeterminism guards the reproducibility every panel leans on:
// the same seed must yield the same applied-fix sequence across
// runs and across serial vs parallel execution. This regressed once
// through rng consumption in map-iteration order (SeedGamma).
func TestChaseDeterminism(t *testing.T) {
	cfg := DefaultConfig()
	cfg.N = 200
	a := chaseApplied(t, cfg, false)
	b := chaseApplied(t, cfg, false)
	par := chaseApplied(t, cfg, true)
	if len(a) == 0 {
		t.Fatal("chase applied no fixes — workload too clean to test")
	}
	compare := func(name string, other []string) {
		if len(a) != len(other) {
			t.Fatalf("%s: fix counts diverge: %d vs %d", name, len(a), len(other))
		}
		for i := range a {
			if a[i] != other[i] {
				t.Fatalf("%s: fix sequences diverge at %d: %q vs %q", name, i, a[i], other[i])
			}
		}
	}
	compare("serial vs serial", b)
	compare("serial vs parallel", par)
}
