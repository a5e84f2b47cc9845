package svm

import "repro/internal/vector"

// SparseModel is the published form of a linear model: only its non-zero
// weights, as strictly ascending feature indices with their values, over a
// Dim-wide feature space. Training keeps the dense LinearModel (its
// accumulator); a bank converts each model once it is final, and
// everything downstream — the wire codec, admission, FusedLinear — reads
// only the non-zeros. A SparseModel is immutable once published.
type SparseModel struct {
	Index []int32
	Value []float64
	Dim   int
	Bias  float64
}

// Sparse returns m's non-zero weights as a SparseModel. Exact zeros of
// either sign are dropped, as the wire encoding always has.
func (m *LinearModel) Sparse() *SparseModel {
	nnz := 0
	for _, w := range m.W {
		if w != 0 {
			nnz++
		}
	}
	s := &SparseModel{Index: make([]int32, 0, nnz), Value: make([]float64, 0, nnz), Dim: len(m.W), Bias: m.Bias}
	for i, w := range m.W {
		if w != 0 {
			s.Index = append(s.Index, int32(i))
			s.Value = append(s.Value, w)
		}
	}
	return s
}

// Decision returns w·x + b, bit-identical to the dense model's Decision:
// the matching entries are added in ascending feature order, and the
// products DotDense adds for the zero weights are signed zeros, which
// leave an IEEE-754 running sum that started at +0 unchanged.
func (m *SparseModel) Decision(x *vector.Sparse) float64 {
	var sum float64
	k := 0
	for _, e := range x.Entries() {
		for k < len(m.Index) && m.Index[k] < e.Index {
			k++
		}
		if k == len(m.Index) {
			break
		}
		if m.Index[k] == e.Index {
			sum += e.Value * m.Value[k]
		}
	}
	return sum + m.Bias
}

// WireSize is the model's encoded size: a 16-byte header (bias, dim,
// non-zero count) and 12 bytes per non-zero weight.
func (m *SparseModel) WireSize() int { return 16 + 12*len(m.Index) }
