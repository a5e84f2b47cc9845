package svm

import "math"

// PlattParams calibrate raw SVM decision values into probabilities with a
// fitted sigmoid P(y=1|f) = 1/(1+exp(A*f+B)) — Platt scaling, as LibSVM
// applies for probability outputs. Ensemble protocols calibrate each model
// on its training data so that votes from differently scaled models are
// comparable and the tagging threshold has a consistent meaning.
type PlattParams struct {
	A, B float64
}

// DefaultPlatt is the identity-ish calibration sigma(f) used when no
// calibration data is available.
var DefaultPlatt = PlattParams{A: -1, B: 0}

// Prob maps a decision value to a calibrated probability.
func (p PlattParams) Prob(f float64) float64 {
	fApB := p.A*f + p.B
	// Numerically stable logistic.
	if fApB >= 0 {
		e := math.Exp(-fApB)
		return e / (1 + e)
	}
	return 1 / (1 + math.Exp(fApB))
}

// PlattCalibrate fits sigmoid parameters to (decision, label) pairs with
// the improved Newton method of Lin, Lin & Weng (2007). Labels are ±1.
// Degenerate inputs (one class, no data) fall back to DefaultPlatt.
func PlattCalibrate(decisions []float64, labels []float64) PlattParams {
	n := len(decisions)
	if n == 0 || n != len(labels) {
		return DefaultPlatt
	}
	prior1, prior0 := 0.0, 0.0
	for _, y := range labels {
		if y > 0 {
			prior1++
		} else {
			prior0++
		}
	}
	if prior1 == 0 || prior0 == 0 {
		return DefaultPlatt
	}

	const (
		maxIter = 100
		minStep = 1e-10
		sigma   = 1e-12 // Hessian ridge
		eps     = 1e-5
	)
	hiTarget := (prior1 + 1) / (prior1 + 2)
	loTarget := 1 / (prior0 + 2)
	t := make([]float64, n)
	for i, y := range labels {
		if y > 0 {
			t[i] = hiTarget
		} else {
			t[i] = loTarget
		}
	}

	A := 0.0
	B := math.Log((prior0 + 1) / (prior1 + 1))
	fval := 0.0
	for i := 0; i < n; i++ {
		fApB := A*decisions[i] + B
		if fApB >= 0 {
			fval += t[i]*fApB + math.Log(1+math.Exp(-fApB))
		} else {
			fval += (t[i]-1)*fApB + math.Log(1+math.Exp(fApB))
		}
	}

	for iter := 0; iter < maxIter; iter++ {
		h11, h22 := sigma, sigma
		h21, g1, g2 := 0.0, 0.0, 0.0
		for i := 0; i < n; i++ {
			fApB := A*decisions[i] + B
			var p, q float64
			if fApB >= 0 {
				e := math.Exp(-fApB)
				p = e / (1 + e)
				q = 1 / (1 + e)
			} else {
				e := math.Exp(fApB)
				p = 1 / (1 + e)
				q = e / (1 + e)
			}
			d2 := p * q
			h11 += decisions[i] * decisions[i] * d2
			h22 += d2
			h21 += decisions[i] * d2
			d1 := t[i] - p
			g1 += decisions[i] * d1
			g2 += d1
		}
		if math.Abs(g1) < eps && math.Abs(g2) < eps {
			break
		}
		det := h11*h22 - h21*h21
		dA := -(h22*g1 - h21*g2) / det
		dB := -(-h21*g1 + h11*g2) / det
		gd := g1*dA + g2*dB
		stepSize := 1.0
		for stepSize >= minStep {
			newA := A + stepSize*dA
			newB := B + stepSize*dB
			newf := 0.0
			for i := 0; i < n; i++ {
				fApB := newA*decisions[i] + newB
				if fApB >= 0 {
					newf += t[i]*fApB + math.Log(1+math.Exp(-fApB))
				} else {
					newf += (t[i]-1)*fApB + math.Log(1+math.Exp(fApB))
				}
			}
			if newf < fval+1e-4*stepSize*gd {
				A, B, fval = newA, newB, newf
				break
			}
			stepSize /= 2
		}
		if stepSize < minStep {
			break
		}
	}
	return PlattParams{A: A, B: B}
}

// CrossValDecisions produces out-of-sample decision values for every
// example via stratified k-fold cross-validation: each example is scored by
// a model that did not train on it. train returns a classifier for a
// subset; when a fold cannot be trained (e.g. one-class), those examples
// fall back to the fallback classifier's (in-sample) decisions.
func CrossValDecisions(data []Example, folds int, fallback Classifier,
	train func([]Example) (Classifier, error)) []float64 {

	n := len(data)
	out := make([]float64, n)
	if folds < 2 {
		folds = 2
	}
	if folds > n {
		folds = n
	}
	// Stratified fold assignment: deal positives and negatives round-robin
	// so every fold keeps both classes whenever possible.
	foldOf := make([]int, n)
	pc, nc := 0, 0
	for i, ex := range data {
		if ex.Y > 0 {
			foldOf[i] = pc % folds
			pc++
		} else {
			foldOf[i] = nc % folds
			nc++
		}
	}
	for f := 0; f < folds; f++ {
		var tr []Example
		var te []int
		for i := range data {
			if foldOf[i] == f {
				te = append(te, i)
			} else {
				tr = append(tr, data[i])
			}
		}
		m, err := train(tr)
		if err != nil || m == nil {
			m = fallback
		}
		if m == nil {
			continue
		}
		for _, i := range te {
			out[i] = m.Decision(data[i].X)
		}
	}
	return out
}

// CVAccuracy returns the fraction of decisions whose sign matches labels —
// an honest (out-of-sample) accuracy estimate when the decisions came from
// CrossValDecisions.
func CVAccuracy(decisions, labels []float64) float64 {
	if len(decisions) == 0 {
		return 0
	}
	correct := 0
	for i, d := range decisions {
		if (d >= 0 && labels[i] > 0) || (d < 0 && labels[i] < 0) {
			correct++
		}
	}
	return float64(correct) / float64(len(decisions))
}

// CalibrateLinearCV fits Platt parameters from cross-validated decisions of
// a linear SVM on data (full is the model trained on all of data, used as
// the degenerate-fold fallback). folds defaults to 3. It also returns the
// cross-validated accuracy, the honest model weight for ensemble voting.
func CalibrateLinearCV(data []Example, opts LinearOptions, full Classifier, folds int) (PlattParams, float64) {
	if folds == 0 {
		folds = 3
	}
	dec := CrossValDecisions(data, folds, full, func(tr []Example) (Classifier, error) {
		return TrainLinear(tr, opts)
	})
	labels := make([]float64, len(data))
	for i, ex := range data {
		labels[i] = ex.Y
	}
	return guardPlatt(PlattCalibrate(dec, labels), len(data)), CVAccuracy(dec, labels)
}

// guardPlatt rejects calibrations that are untrustworthy: fitted on too few
// points, or inverted (A >= 0 means higher decisions map to LOWER
// probabilities, contradicting the SVM's own decision rule — it only
// happens when tiny cross-validation folds produce noise). Such fits fall
// back to the neutral sigmoid.
func guardPlatt(p PlattParams, n int) PlattParams {
	const minCalibrationPoints = 12
	if n < minCalibrationPoints || p.A >= 0 {
		return DefaultPlatt
	}
	return p
}

// CalibrateKernelCV fits Platt parameters from cross-validated decisions of
// a kernel SVM on data. folds defaults to 3.
func CalibrateKernelCV(data []Example, opts KernelOptions, full Classifier, folds int) PlattParams {
	if folds == 0 {
		folds = 3
	}
	dec := CrossValDecisions(data, folds, full, func(tr []Example) (Classifier, error) {
		return TrainKernel(tr, opts)
	})
	labels := make([]float64, len(data))
	for i, ex := range data {
		labels[i] = ex.Y
	}
	return guardPlatt(PlattCalibrate(dec, labels), len(data))
}
