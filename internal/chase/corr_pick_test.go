package chase_test

import (
	"testing"

	"github.com/rockclean/rock/internal/chase"
	"github.com/rockclean/rock/internal/data"
	"github.com/rockclean/rock/internal/ml"
	"github.com/rockclean/rock/internal/workload"
)

// shifted rotates column j of the tuples by j rows, so no two columns
// of a shifted tuple come from one input tuple: a correlation model
// trained on it finds none of the data's correlations.
func shifted(tuples []*data.Tuple) []*data.Tuple {
	out := make([]*data.Tuple, len(tuples))
	for i, t := range tuples {
		c := t.Clone()
		for j := range c.Values {
			c.Values[j] = tuples[(i+j)%len(tuples)].Values[j]
		}
		out[i] = c
	}
	return out
}

// cleanWithCorr cleans a small Logistics instance whose env holds, per
// relation, the dataset's own correlation model and/or a second one
// trained on shifted tuples under a name that sorts first.
func cleanWithCorr(t *testing.T, own, other, parallel bool) string {
	t.Helper()
	ds := workload.Logistics(workload.Config{N: 150, Seed: 5})
	env := ds.BuildEnv()
	for name, rel := range ds.DB.Relations {
		if !own {
			delete(env.Corr, "M_c_"+name)
		}
		if other {
			mc := ml.NewCorrelationModel("A_shifted_"+name, rel.Schema)
			mc.Train(shifted(rel.Tuples))
			env.Corr[mc.Name()] = mc
		}
	}
	opts := chase.DefaultOptions()
	opts.Workers, opts.Parallel, opts.EIDRefs = 2, parallel, ds.EIDRefs
	eng := chase.New(env, ds.Rules, ds.Gamma, opts)
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return eng.Truth().Snapshot()
}

// TestCorrModelPickedByName pins the conflict resolver's choice between
// two correlation models trained for one schema: the first by name, on
// every call. It used to take whichever a map range met first, so the
// pick — and the fix set — could change from one clean, or one
// resolution, to the next.
func TestCorrModelPickedByName(t *testing.T) {
	first := cleanWithCorr(t, false, true, false)
	if cleanWithCorr(t, true, false, false) == first {
		t.Fatal("the two models resolve every conflict alike; the fixture cannot tell which one was picked")
	}
	for i := 0; i < 40; i++ {
		if got := cleanWithCorr(t, true, true, i%2 == 1); got != first {
			t.Fatalf("clean %d (parallel %v) with both models differs from the one with the first-named model alone", i, i%2 == 1)
		}
	}
}
