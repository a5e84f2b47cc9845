// Package svm implements the base learners of CEMPaR and PACE from scratch:
// a linear SVM trained by dual coordinate descent, a kernel SVM trained by
// SMO, and the cascade-SVM merge step used at CEMPaR super-peers, plus Platt
// calibration, weight pruning and noise perturbation for shipped models.
// The binary wire encoding of linear models lives in internal/wire;
// WireSize methods here are the analytic size estimates the network
// simulator charges.
package svm

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/vector"
)

// Example is a labeled training instance with label y ∈ {-1, +1}.
type Example struct {
	X *vector.Sparse
	Y float64
}

// ErrNoData is returned when training is attempted on an empty set.
var ErrNoData = errors.New("svm: no training data")

// ErrOneClass is returned when all training labels are identical; callers
// typically fall back to a constant predictor.
var ErrOneClass = errors.New("svm: all labels identical")

func validate(data []Example) error {
	if len(data) == 0 {
		return ErrNoData
	}
	pos, neg := 0, 0
	for i, ex := range data {
		switch ex.Y {
		case 1:
			pos++
		case -1:
			neg++
		default:
			return fmt.Errorf("svm: example %d has label %v, want ±1", i, ex.Y)
		}
	}
	if pos == 0 || neg == 0 {
		return ErrOneClass
	}
	return nil
}

// Classifier is a binary decision function. Decision returns a signed score
// whose sign is the predicted label.
type Classifier interface {
	Decision(x *vector.Sparse) float64
	// WireSize is the serialized size in bytes charged by the simulator
	// when the model crosses the network.
	WireSize() int
}

// Predict converts a decision score to a ±1 label.
func Predict(c Classifier, x *vector.Sparse) float64 {
	if c.Decision(x) >= 0 {
		return 1
	}
	return -1
}

// Accuracy returns the fraction of data classified correctly by c.
func Accuracy(c Classifier, data []Example) float64 {
	if len(data) == 0 {
		return 0
	}
	correct := 0
	for _, ex := range data {
		if Predict(c, ex.X) == ex.Y {
			correct++
		}
	}
	return float64(correct) / float64(len(data))
}

// ---------------------------------------------------------------------------
// Linear SVM

// LinearModel is a linear decision function w·x + b.
type LinearModel struct {
	W    []float64
	Bias float64
}

// Decision returns w·x + b.
func (m *LinearModel) Decision(x *vector.Sparse) float64 {
	return x.DotDense(m.W) + m.Bias
}

// WireSize counts 8 bytes per non-zero weight plus index and header
// overhead, matching the sparse encoding peers would ship.
func (m *LinearModel) WireSize() int {
	nnz := 0
	for _, w := range m.W {
		if w != 0 {
			nnz++
		}
	}
	return 16 + 12*nnz
}

// Pruned returns a copy of the model with weights below rel*max|w| zeroed —
// the standard compression applied before shipping linear text models:
// coordinate-descent training leaves long tails of tiny weights that cost
// wire bytes but contribute nothing to decisions.
func (m *LinearModel) Pruned(rel float64) *LinearModel {
	maxAbs := 0.0
	for _, w := range m.W {
		if a := math.Abs(w); a > maxAbs {
			maxAbs = a
		}
	}
	cut := rel * maxAbs
	out := &LinearModel{W: make([]float64, len(m.W)), Bias: m.Bias}
	for i, w := range m.W {
		if math.Abs(w) >= cut {
			out.W[i] = w
		}
	}
	return out
}

// Noised returns a copy of the model with Laplace noise added to every
// non-zero weight and the bias — simplified output perturbation (in the
// spirit of Chaudhuri & Monteleoni's privacy-preserving ERM): the shared
// model no longer reveals exact training-data directions. The noise scale
// b is relative*mean|w| over non-zero weights, so callers reason in
// fractions of typical weight magnitude. rng keeps it deterministic.
func (m *LinearModel) Noised(relative float64, rng *rand.Rand) *LinearModel {
	if relative <= 0 {
		return m
	}
	var sum float64
	nnz := 0
	for _, w := range m.W {
		if w != 0 {
			sum += math.Abs(w)
			nnz++
		}
	}
	if nnz == 0 {
		return m
	}
	b := relative * sum / float64(nnz)
	laplace := func() float64 {
		u := rng.Float64() - 0.5
		if u >= 0 {
			return -b * math.Log(1-2*u)
		}
		return b * math.Log(1+2*u)
	}
	out := &LinearModel{W: make([]float64, len(m.W)), Bias: m.Bias + laplace()}
	for i, w := range m.W {
		if w != 0 {
			out.W[i] = w + laplace()
		}
	}
	return out
}

// LinearOptions configures linear SVM training.
type LinearOptions struct {
	// C is the soft-margin penalty; default 1.
	C float64
	// Seed drives the permutation order, keeping training deterministic.
	Seed int64
}

func (o *LinearOptions) defaults() {
	if o.C == 0 {
		o.C = 1
	}
}

// Dual coordinate descent stops after linearEpochs passes or once the
// largest projected gradient falls below linearTol.
const (
	linearEpochs = 50
	linearTol    = 1e-3
)

// TrainLinear fits a linear L1-loss SVM with dual coordinate descent
// (Hsieh et al., the algorithm behind LIBLINEAR), the learner PACE
// specifies for its low computation cost.
func TrainLinear(data []Example, opts LinearOptions) (*LinearModel, error) {
	opts.defaults()
	if err := validate(data); err != nil {
		return nil, err
	}
	dim, pos := 0, 0
	for _, ex := range data {
		if int(ex.X.MaxIndex())+1 > dim {
			dim = int(ex.X.MaxIndex()) + 1
		}
		if ex.Y > 0 {
			pos++
		}
	}
	// One-against-all tag models are heavily imbalanced, so positives
	// get C scaled by the #neg/#pos ratio.
	posW := float64(len(data)-pos) / float64(pos)
	// Append a constant feature for the bias via augmentation.
	w := make([]float64, dim)
	var bias float64
	alpha := make([]float64, len(data))
	qdiag := make([]float64, len(data))
	cbound := make([]float64, len(data))
	for i, ex := range data {
		qdiag[i] = ex.X.SquaredNorm() + 1 // +1 for the bias feature
		cbound[i] = opts.C
		if ex.Y > 0 {
			cbound[i] = opts.C * posW
		}
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	perm := rng.Perm(len(data))

	for epoch := 0; epoch < linearEpochs; epoch++ {
		maxPG := 0.0
		// Reshuffle each epoch for faster convergence.
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		for _, i := range perm {
			ex := data[i]
			g := ex.Y*(ex.X.DotDense(w)+bias) - 1
			var pg float64
			switch {
			case alpha[i] == 0:
				pg = math.Min(g, 0)
			case alpha[i] == cbound[i]:
				pg = math.Max(g, 0)
			default:
				pg = g
			}
			if math.Abs(pg) > maxPG {
				maxPG = math.Abs(pg)
			}
			if pg == 0 {
				continue
			}
			old := alpha[i]
			na := old - g/qdiag[i]
			if na < 0 {
				na = 0
			} else if na > cbound[i] {
				na = cbound[i]
			}
			alpha[i] = na
			d := (na - old) * ex.Y
			if d != 0 {
				ex.X.AddDense(w, d)
				bias += d
			}
		}
		if maxPG < linearTol {
			break
		}
	}
	return &LinearModel{W: w, Bias: bias}, nil
}
