package svm

import (
	"fmt"
	"math"

	"repro/internal/vector"
)

// KernelKind selects the kernel function of a KernelModel.
type KernelKind int

const (
	// KernelLinear is <x, y>.
	KernelLinear KernelKind = iota
	// KernelRBF is exp(-gamma*||x-y||^2), the non-linear kernel CEMPaR's
	// cascade uses.
	KernelRBF
	// KernelPoly is (gamma*<x,y> + coef0)^degree.
	KernelPoly
)

func (k KernelKind) String() string {
	switch k {
	case KernelLinear:
		return "linear"
	case KernelRBF:
		return "rbf"
	case KernelPoly:
		return "poly"
	default:
		return fmt.Sprintf("KernelKind(%d)", int(k))
	}
}

// Kernel bundles a kernel kind with its parameters.
type Kernel struct {
	Kind   KernelKind
	Gamma  float64 // RBF/poly scale; default 1
	Coef0  float64 // poly offset
	Degree int     // poly degree; default 3
}

// Eval computes k(a, b).
func (k Kernel) Eval(a, b *vector.Sparse) float64 {
	var an, bn float64
	if k.Kind == KernelRBF {
		an, bn = a.SquaredNorm(), b.SquaredNorm()
	}
	return k.fromDot(a.Dot(b), an, bn)
}

// fromDot turns the inner product <a, b> and the two squared norms (read
// only by RBF) into the kernel value. Eval, KernelModel.Decision and
// KernelBank.DecisionsInto all evaluate the kernel through this one
// expression, which is what keeps them bit-identical to each other.
func (k Kernel) fromDot(dot, an, bn float64) float64 {
	gamma := k.Gamma
	if gamma == 0 {
		gamma = 1
	}
	switch k.Kind {
	case KernelRBF:
		d := an + bn - 2*dot
		if d < 0 {
			d = 0
		}
		if math.IsNaN(d) {
			// Inf-Inf from overflow-scale inputs: the distance is
			// effectively infinite, so the kernel value is 0.
			return 0
		}
		return math.Exp(-gamma * d)
	case KernelPoly:
		deg := k.Degree
		if deg == 0 {
			deg = 3
		}
		return math.Pow(gamma*dot+k.Coef0, float64(deg))
	default:
		return dot
	}
}

// SupportVector is one retained training example with its dual coefficient
// alpha*y. These are exactly what CEMPaR peers propagate to super-peers.
type SupportVector struct {
	X     *vector.Sparse
	Coeff float64 // alpha_i * y_i
}

// KernelModel is a kernel SVM decision function
// f(x) = sum_i coeff_i k(sv_i, x) + b.
type KernelModel struct {
	Kernel Kernel
	SVs    []SupportVector
	Bias   float64
	// svNorms caches each support vector's squared norm for the RBF fast
	// path (set by Precompute; nil means recompute per query). It is
	// derived data: serialization ignores it and deserialization rebuilds
	// it.
	svNorms []float64
}

// Precompute caches the support vectors' squared norms so RBF Decision
// stops recomputing them for every query. Call it after the SV set is
// final; every construction site in this module does (TrainKernel, the
// cascade, wire decoding). It rebuilds unconditionally — norms are cheap
// next to training — so calling it again after mutating SVs always
// refreshes the cache. Decision additionally falls back to per-query
// norms when the cache length no longer matches the SV count (SVs
// appended without a Precompute); replacing a vector in place without
// calling Precompute is the one misuse neither guard catches.
func (m *KernelModel) Precompute() {
	norms := make([]float64, len(m.SVs))
	for i, sv := range m.SVs {
		norms[i] = sv.X.SquaredNorm()
	}
	m.svNorms = norms
}

// Decision evaluates the kernel expansion at x. For RBF kernels the
// query's squared norm is computed once and the support vectors' squared
// norms come from the Precompute cache, turning each kernel evaluation
// into a single sparse dot product; the floating-point operation order is
// unchanged from the naive evaluation, so decision values are
// bit-identical (pinned by the svm tests). Serving scores whole per-tag
// banks through KernelBank instead; Decision is what training-time
// calibration calls and the reference the bank is pinned against.
func (m *KernelModel) Decision(x *vector.Sparse) float64 {
	rbf := m.Kernel.Kind == KernelRBF
	var xn float64
	if rbf {
		xn = x.SquaredNorm()
	}
	norms := m.svNorms
	if len(norms) != len(m.SVs) {
		norms = nil
	}
	sum := m.Bias
	for i, sv := range m.SVs {
		var svn float64
		if norms != nil {
			svn = norms[i]
		} else if rbf {
			svn = sv.X.SquaredNorm()
		}
		sum += sv.Coeff * m.Kernel.fromDot(sv.X.Dot(x), svn, xn)
	}
	return sum
}

// WireSize charges the sparse encoding of every support vector plus its
// coefficient — the payload a CEMPaR peer ships to its super-peer.
func (m *KernelModel) WireSize() int {
	n := 32 // kernel params + bias header
	for _, sv := range m.SVs {
		n += sv.X.WireSize() + 8
	}
	return n
}

// SupportExamples converts the retained support vectors back into labeled
// examples (label = sign of the dual coefficient), the form in which the
// cascade retrains at super-peers.
func (m *KernelModel) SupportExamples() []Example {
	out := make([]Example, 0, len(m.SVs))
	for _, sv := range m.SVs {
		y := 1.0
		if sv.Coeff < 0 {
			y = -1
		}
		out = append(out, Example{X: sv.X, Y: y})
	}
	return out
}

// KernelOptions configures SMO training.
type KernelOptions struct {
	Kernel Kernel
	// C is the soft-margin penalty; default 1.
	C float64
	// PositiveWeight multiplies C for positive examples to counter class
	// imbalance; 0 selects the #neg/#pos auto-balance, 1 disables
	// weighting.
	PositiveWeight float64
	// Tol is the KKT violation tolerance; default 1e-3.
	Tol float64
	// MaxPasses is the number of full no-progress passes before stopping;
	// default 5.
	MaxPasses int
	// MaxIterations caps total optimization sweeps; default 200.
	MaxIterations int
	// Seed drives the second-alpha choice.
	Seed int64
}

func (o *KernelOptions) defaults() {
	if o.C == 0 {
		o.C = 1
	}
	if o.Tol == 0 {
		o.Tol = 1e-3
	}
	if o.MaxPasses == 0 {
		o.MaxPasses = 5
	}
	if o.MaxIterations == 0 {
		o.MaxIterations = 200
	}
}

// TrainKernel fits a kernel SVM with simplified SMO (Platt's algorithm in
// the form popularized by the Stanford CS229 notes): repeatedly pick pairs
// of multipliers violating the KKT conditions and solve the two-variable
// subproblem analytically.
func TrainKernel(data []Example, opts KernelOptions) (*KernelModel, error) {
	opts.defaults()
	if err := validate(data); err != nil {
		return nil, err
	}
	n := len(data)
	alpha := make([]float64, n)
	var b float64

	pos := 0
	for _, ex := range data {
		if ex.Y > 0 {
			pos++
		}
	}
	posW := opts.PositiveWeight
	if posW == 0 {
		posW = float64(n-pos) / float64(pos)
	}
	cbound := make([]float64, n)
	for i, ex := range data {
		cbound[i] = opts.C
		if ex.Y > 0 {
			cbound[i] = opts.C * posW
		}
	}

	// Cache the kernel diagonal and precompute rows lazily. For the data
	// sizes per peer (tens to low hundreds of documents) a full cache is
	// affordable and keeps training O(iterations * n).
	kcache := make([][]float64, n)
	krow := func(i int) []float64 {
		if kcache[i] == nil {
			row := make([]float64, n)
			for j := 0; j < n; j++ {
				row[j] = opts.Kernel.Eval(data[i].X, data[j].X)
			}
			kcache[i] = row
		}
		return kcache[i]
	}
	f := func(i int) float64 {
		sum := b
		row := krow(i)
		for j := 0; j < n; j++ {
			if alpha[j] != 0 {
				sum += alpha[j] * data[j].Y * row[j]
			}
		}
		return sum
	}

	rng := newLCG(uint64(opts.Seed)*2654435761 + 1)
	passes, iter := 0, 0
	for passes < opts.MaxPasses && iter < opts.MaxIterations {
		changed := 0
		for i := 0; i < n; i++ {
			Ei := f(i) - data[i].Y
			ri := Ei * data[i].Y
			if (ri < -opts.Tol && alpha[i] < cbound[i]) || (ri > opts.Tol && alpha[i] > 0) {
				j := int(rng.next() % uint64(n-1))
				if j >= i {
					j++
				}
				Ej := f(j) - data[j].Y
				ai, aj := alpha[i], alpha[j]
				ci, cj := cbound[i], cbound[j]
				var L, H float64
				if data[i].Y != data[j].Y {
					L = math.Max(0, aj-ai)
					H = math.Min(cj, ci+aj-ai)
				} else {
					L = math.Max(0, ai+aj-cj)
					H = math.Min(cj, ai+aj)
				}
				if L == H {
					continue
				}
				kii, kjj, kij := krow(i)[i], krow(j)[j], krow(i)[j]
				eta := 2*kij - kii - kjj
				if eta >= 0 {
					continue
				}
				na := aj - data[j].Y*(Ei-Ej)/eta
				if na > H {
					na = H
				} else if na < L {
					na = L
				}
				if math.Abs(na-aj) < 1e-7 {
					continue
				}
				alpha[j] = na
				alpha[i] = ai + data[i].Y*data[j].Y*(aj-na)
				b1 := b - Ei - data[i].Y*(alpha[i]-ai)*kii - data[j].Y*(alpha[j]-aj)*kij
				b2 := b - Ej - data[i].Y*(alpha[i]-ai)*kij - data[j].Y*(alpha[j]-aj)*kjj
				switch {
				case alpha[i] > 0 && alpha[i] < ci:
					b = b1
				case alpha[j] > 0 && alpha[j] < cj:
					b = b2
				default:
					b = (b1 + b2) / 2
				}
				changed++
			}
		}
		if changed == 0 {
			passes++
		} else {
			passes = 0
		}
		iter++
	}

	m := &KernelModel{Kernel: opts.Kernel, Bias: b}
	for i := 0; i < n; i++ {
		if alpha[i] > 1e-9 {
			m.SVs = append(m.SVs, SupportVector{X: data[i].X, Coeff: alpha[i] * data[i].Y})
		}
	}
	if len(m.SVs) == 0 {
		// Degenerate but separable-at-zero data; keep one vector from each
		// class so the model is non-trivial.
		for _, want := range []float64{1, -1} {
			for _, ex := range data {
				if ex.Y == want {
					m.SVs = append(m.SVs, SupportVector{X: ex.X, Coeff: want * opts.C})
					break
				}
			}
		}
	}
	m.Precompute()
	return m, nil
}

// lcg is a tiny deterministic linear congruential generator. SMO only needs
// cheap pseudo-random pair selection; a full rand.Rand would be fine too,
// but this keeps the hot loop allocation-free.
type lcg struct{ state uint64 }

func newLCG(seed uint64) *lcg { return &lcg{state: seed | 1} }

func (l *lcg) next() uint64 {
	l.state = l.state*6364136223846793005 + 1442695040888963407
	return l.state >> 33
}

// ---------------------------------------------------------------------------
// Cascade SVM

// CascadeOptions configures the cascade merge performed at super-peers.
type CascadeOptions struct {
	KernelOptions
	// FanIn is how many child models merge per cascade layer; default 4.
	FanIn int
}

// Cascade merges kernel models by retraining on the union of their support
// vectors, layer by layer, until one model remains — the cascade-SVM
// paradigm CEMPaR builds on. Merging a single model returns it unchanged.
func Cascade(models []*KernelModel, opts CascadeOptions) (*KernelModel, error) {
	if len(models) == 0 {
		return nil, ErrNoData
	}
	if opts.FanIn < 2 {
		opts.FanIn = 4
	}
	layer := models
	for len(layer) > 1 {
		var next []*KernelModel
		for lo := 0; lo < len(layer); lo += opts.FanIn {
			hi := lo + opts.FanIn
			if hi > len(layer) {
				hi = len(layer)
			}
			group := layer[lo:hi]
			if len(group) == 1 {
				next = append(next, group[0])
				continue
			}
			var pool []Example
			for _, m := range group {
				pool = append(pool, m.SupportExamples()...)
			}
			merged, err := TrainKernel(pool, opts.KernelOptions)
			if err == ErrOneClass {
				// All SVs from one class (can happen with tiny peers):
				// keep the largest child model instead of failing.
				merged = group[0]
				for _, m := range group[1:] {
					if len(m.SVs) > len(merged.SVs) {
						merged = m
					}
				}
			} else if err != nil {
				return nil, fmt.Errorf("svm: cascade merge: %w", err)
			}
			next = append(next, merged)
		}
		layer = next
	}
	return layer[0], nil
}
