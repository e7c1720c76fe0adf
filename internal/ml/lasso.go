package ml

import (
	"math"
	"sort"
)

// Lasso fits a linear model with L1 regularisation by cyclic coordinate
// descent. Rock uses it to learn polynomial expressions among numerical
// attributes (paper §5.4): unimportant features receive exactly zero
// weight, so the surviving terms form an interpretable arithmetic rule.
type Lasso struct {
	Weights   []float64
	Intercept float64
	// Lambda is the L1 penalty.
	Lambda float64
	// Iters is the number of coordinate-descent sweeps.
	Iters int
}

// NewLasso creates a model for nFeatures inputs.
func NewLasso(nFeatures int, lambda float64) *Lasso {
	return &Lasso{Weights: make([]float64, nFeatures), Lambda: lambda, Iters: 200}
}

// Fit runs coordinate descent on the standardized design matrix.
func (l *Lasso) Fit(xs [][]float64, ys []float64) {
	n := len(xs)
	if n == 0 {
		return
	}
	p := len(l.Weights)
	// Center y; standardise columns so the shrinkage is comparable.
	meanY := mean(ys)
	colMean := make([]float64, p)
	colNorm := make([]float64, p)
	for j := 0; j < p; j++ {
		for i := 0; i < n; i++ {
			colMean[j] += xs[i][j]
		}
		colMean[j] /= float64(n)
		for i := 0; i < n; i++ {
			d := xs[i][j] - colMean[j]
			colNorm[j] += d * d
		}
	}
	resid := make([]float64, n)
	for i := range resid {
		resid[i] = ys[i] - meanY
	}
	for it := 0; it < l.Iters; it++ {
		maxDelta := 0.0
		for j := 0; j < p; j++ {
			if colNorm[j] == 0 {
				continue
			}
			// rho = x_j · (resid + w_j x_j)
			rho := 0.0
			for i := 0; i < n; i++ {
				xij := xs[i][j] - colMean[j]
				rho += xij * (resid[i] + l.Weights[j]*xij)
			}
			wNew := softThreshold(rho, l.Lambda*float64(n)) / colNorm[j]
			if wNew != l.Weights[j] {
				delta := wNew - l.Weights[j]
				for i := 0; i < n; i++ {
					resid[i] -= delta * (xs[i][j] - colMean[j])
				}
				l.Weights[j] = wNew
				if d := math.Abs(delta); d > maxDelta {
					maxDelta = d
				}
			}
		}
		if maxDelta < 1e-9 {
			break
		}
	}
	l.Intercept = meanY
	for j := 0; j < p; j++ {
		l.Intercept -= l.Weights[j] * colMean[j]
	}
}

// Predict evaluates the fitted model.
func (l *Lasso) Predict(x []float64) float64 {
	y := l.Intercept
	for j, w := range l.Weights {
		if j < len(x) {
			y += w * x[j]
		}
	}
	return y
}

func softThreshold(x, t float64) float64 {
	switch {
	case x > t:
		return x - t
	case x < -t:
		return x + t
	default:
		return 0
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StumpEnsemble ranks feature importance with a boosted ensemble of
// decision stumps — the stand-in for the XGBoost importance ranking that
// Rock uses to prune irrelevant numerical attributes before fitting the
// polynomial expression (paper §5.4) and that the RB baseline uses as its
// downstream model.
type StumpEnsemble struct {
	Rounds int
	stumps []stump
}

type stump struct {
	feature   int
	threshold float64
	leftVal   float64
	rightVal  float64
	weight    float64
}

// NewStumpEnsemble creates an ensemble trained for the given boosting
// rounds.
func NewStumpEnsemble(rounds int) *StumpEnsemble { return &StumpEnsemble{Rounds: rounds} }

// Fit performs L2-boosting: each round fits the stump that best reduces the
// residual sum of squares.
func (e *StumpEnsemble) Fit(xs [][]float64, ys []float64) {
	n := len(xs)
	if n == 0 {
		return
	}
	p := len(xs[0])
	resid := append([]float64(nil), ys...)
	const shrink = 0.5
	for round := 0; round < e.Rounds; round++ {
		best := stump{feature: -1}
		bestSSE := math.Inf(1)
		for j := 0; j < p; j++ {
			vals := make([]float64, n)
			for i := range xs {
				vals[i] = xs[i][j]
			}
			thresholds := candidateThresholds(vals)
			for _, th := range thresholds {
				var sumL, sumR, nL, nR float64
				for i := range xs {
					if xs[i][j] <= th {
						sumL += resid[i]
						nL++
					} else {
						sumR += resid[i]
						nR++
					}
				}
				if nL == 0 || nR == 0 {
					continue
				}
				mL, mR := sumL/nL, sumR/nR
				sse := 0.0
				for i := range xs {
					var pred float64
					if xs[i][j] <= th {
						pred = mL
					} else {
						pred = mR
					}
					d := resid[i] - pred
					sse += d * d
				}
				if sse < bestSSE {
					bestSSE = sse
					best = stump{feature: j, threshold: th, leftVal: mL, rightVal: mR, weight: shrink}
				}
			}
		}
		if best.feature < 0 {
			break
		}
		e.stumps = append(e.stumps, best)
		for i := range xs {
			resid[i] -= shrink * best.eval(xs[i])
		}
	}
}

func (s stump) eval(x []float64) float64 {
	if x[s.feature] <= s.threshold {
		return s.leftVal
	}
	return s.rightVal
}

// Predict evaluates the ensemble.
func (e *StumpEnsemble) Predict(x []float64) float64 {
	y := 0.0
	for _, s := range e.stumps {
		y += s.weight * s.eval(x)
	}
	return y
}

// Importance returns a per-feature importance score: the number of stumps
// splitting on the feature weighted by their order (earlier stumps reduce
// more residual).
func (e *StumpEnsemble) Importance(nFeatures int) []float64 {
	imp := make([]float64, nFeatures)
	for i, s := range e.stumps {
		if s.feature < nFeatures {
			imp[s.feature] += 1 / float64(i+1)
		}
	}
	return imp
}

// TopFeatures returns the indices of the k most important features.
func (e *StumpEnsemble) TopFeatures(nFeatures, k int) []int {
	imp := e.Importance(nFeatures)
	idx := make([]int, nFeatures)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return imp[idx[a]] > imp[idx[b]] })
	if k > len(idx) {
		k = len(idx)
	}
	out := append([]int(nil), idx[:k]...)
	sort.Ints(out)
	return out
}

func candidateThresholds(vals []float64) []float64 {
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	var out []float64
	const maxThresholds = 16
	step := len(sorted) / maxThresholds
	if step < 1 {
		step = 1
	}
	prev := math.Inf(-1)
	for i := 0; i < len(sorted); i += step {
		if sorted[i] != prev {
			out = append(out, sorted[i])
			prev = sorted[i]
		}
	}
	return out
}
