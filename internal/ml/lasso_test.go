package ml

import (
	"math"
	"math/rand"
	"testing"
)

func TestLassoRecoversSparseModel(t *testing.T) {
	// y = 3*x0 - 2*x2 + 5 with 6 features; x1,x3,x4,x5 are noise.
	rng := rand.New(rand.NewSource(3))
	n := 300
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		x := make([]float64, 6)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		xs[i] = x
		ys[i] = 3*x[0] - 2*x[2] + 5
	}
	l := NewLasso(6, 0.05)
	l.Fit(xs, ys)
	for j, w := range l.Weights {
		if nonZero := math.Abs(w) > 0.1; nonZero != (j == 0 || j == 2) {
			t.Fatalf("feature %d: |weight| > 0.1 is %v, want only features 0 and 2: %v", j, nonZero, l.Weights)
		}
	}
	if math.Abs(l.Weights[0]-3) > 0.3 || math.Abs(l.Weights[2]+2) > 0.3 {
		t.Errorf("weights off: %v", l.Weights)
	}
	if math.Abs(l.Intercept-5) > 0.3 {
		t.Errorf("intercept off: %f", l.Intercept)
	}
	// Prediction sanity.
	if pred := l.Predict([]float64{1, 0, 1, 0, 0, 0}); math.Abs(pred-6) > 0.5 {
		t.Errorf("predict=%f want ~6", pred)
	}
}

func TestLassoEmptyFit(t *testing.T) {
	l := NewLasso(3, 0.1)
	l.Fit(nil, nil) // must not panic
	if l.Predict([]float64{1, 2, 3}) != 0 {
		t.Error("unfitted lasso predicts 0")
	}
}

func TestSoftThreshold(t *testing.T) {
	if softThreshold(5, 2) != 3 || softThreshold(-5, 2) != -3 || softThreshold(1, 2) != 0 {
		t.Error("soft threshold wrong")
	}
}

func TestStumpEnsembleImportance(t *testing.T) {
	// y depends only on feature 1.
	rng := rand.New(rand.NewSource(4))
	n := 200
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		xs[i] = x
		if x[1] > 0.5 {
			ys[i] = 10
		} else {
			ys[i] = -10
		}
	}
	e := NewStumpEnsemble(10)
	e.Fit(xs, ys)
	top := e.TopFeatures(3, 1)
	if len(top) != 1 || top[0] != 1 {
		t.Errorf("top features=%v importance=%v", top, e.Importance(3))
	}
	// Predictions should separate the classes.
	if e.Predict([]float64{0, 0.9, 0}) <= e.Predict([]float64{0, 0.1, 0}) {
		t.Error("ensemble did not learn the split")
	}
}

func TestStumpEnsembleEmpty(t *testing.T) {
	e := NewStumpEnsemble(5)
	e.Fit(nil, nil)
	if e.Predict([]float64{1}) != 0 {
		t.Error("empty ensemble predicts 0")
	}
}
