package svm

import (
	"fmt"
	"sort"

	"repro/internal/vector"
)

// KernelBank scores a whole bank of one-vs-all KernelModels — a CEMPaR
// super-peer's regional models — in a single pass over a query. It is the
// kernel sibling of FusedLinear. The per-tag models of one region are
// cascaded from the same documents and keep the same *vector.Sparse
// pointers, so the (tag, support vector) references vastly outnumber the
// distinct vectors; per-tag Decision recomputes the identical sparse dot
// and kernel value once per reference. The bank computes one kernel row —
// k(sv, x) for every distinct support vector — and then runs the cheap
// per-tag sums over it:
//
//   - the distinct support vectors are interned by pointer and stored as an
//     inverted index feature id -> (sv id, value), so the dots cost one walk
//     over the query's entries touching only matching terms, not a
//     two-pointer merge of |sv|+|x| per support vector;
//   - each dot becomes a kernel value through Kernel.fromDot, the expression
//     Decision and Eval use;
//   - each tag is a flat (sv id, coeff) list in its model's own SV order.
//
// Decisions are bit-identical to calling (*KernelModel).Decision per tag:
// the walk visits the query's entries in ascending feature-id order, so
// every support vector's dot accumulates the same products in the same
// order as vector.Sparse.Dot (the merge adds nothing for the non-matching
// entries the index never visits), the kernel value is the same pure
// function of (sv, x), and every per-tag sum starts from the bias and
// adds coeff*k in the model's SV order. The svm tests pin this equality
// on randomized banks for every kernel kind.
//
// The index is dense over feature ids (one offset per id up to the largest
// any support vector carries), like FusedLinear's weight rows.
//
// A KernelBank is immutable after construction and safe for concurrent
// use; it is rebuilt whenever its underlying model bank changes (every
// cascade).
type KernelBank struct {
	kernel Kernel
	tags   []string
	bias   []float64

	// terms[tagStart[t]:tagStart[t+1]] is tag t's expansion.
	tagStart []int32
	terms    []bankTerm

	// norms[id] is distinct support vector id's squared norm;
	// posts[colStart[f]:colStart[f+1]] lists the support vectors carrying
	// feature f, in ascending id.
	norms    []float64
	colStart []int32
	posts    []bankPosting
}

// bankTerm is one (support vector, dual coefficient) reference of a tag.
type bankTerm struct {
	sv    int32
	coeff float64
}

// bankPosting is one non-zero of the support-vector matrix: the vector (as
// an interned id) and its value at the posting list's feature.
type bankPosting struct {
	sv int32
	v  float64
}

// NewKernelBank packs models (a per-tag one-vs-all bank) for single-pass
// scoring. All models must share one Kernel of a known kind — a bank mixes
// their support vectors into one kernel row, so a mismatch cannot be
// scored. An empty bank is valid and scores no tags.
func NewKernelBank(models map[string]*KernelModel) (*KernelBank, error) {
	tags := make([]string, 0, len(models))
	for tag := range models {
		tags = append(tags, tag)
	}
	sort.Strings(tags)
	b := &KernelBank{
		tags:     tags,
		bias:     make([]float64, len(tags)),
		tagStart: make([]int32, len(tags)+1),
	}
	ids := make(map[*vector.Sparse]int32)
	var svs []*vector.Sparse
	dim := 0
	for ti, tag := range tags {
		m := models[tag]
		if m == nil {
			return nil, fmt.Errorf("svm: kernel bank: tag %q has no model", tag)
		}
		if ti == 0 {
			b.kernel = m.Kernel
		} else if m.Kernel != b.kernel {
			return nil, fmt.Errorf("svm: kernel bank: tag %q uses kernel %+v, tag %q uses %+v",
				tag, m.Kernel, tags[0], b.kernel)
		}
		b.bias[ti] = m.Bias
		for _, sv := range m.SVs {
			if sv.X == nil || (sv.X.Len() > 0 && sv.X.Entries()[0].Index < 0) {
				return nil, fmt.Errorf("svm: kernel bank: tag %q has a nil or negative-index support vector", tag)
			}
			id, ok := ids[sv.X]
			if !ok {
				id = int32(len(svs))
				ids[sv.X] = id
				svs = append(svs, sv.X)
				b.norms = append(b.norms, sv.X.SquaredNorm())
				if d := int(sv.X.MaxIndex()) + 1; d > dim {
					dim = d
				}
			}
			b.terms = append(b.terms, bankTerm{sv: id, coeff: sv.Coeff})
		}
		b.tagStart[ti+1] = int32(len(b.terms))
	}
	if k := b.kernel.Kind; k < KernelLinear || k > KernelPoly {
		return nil, fmt.Errorf("svm: kernel bank: unknown kernel kind %v", k)
	}
	// Counting pass, prefix sum, then fill in id order so every posting
	// list is ascending in id (a stable, deterministic layout).
	b.colStart = make([]int32, dim+1)
	for _, x := range svs {
		for _, e := range x.Entries() {
			b.colStart[e.Index+1]++
		}
	}
	for f := 0; f < dim; f++ {
		b.colStart[f+1] += b.colStart[f]
	}
	b.posts = make([]bankPosting, b.colStart[dim])
	next := make([]int32, dim)
	copy(next, b.colStart[:dim])
	for id, x := range svs {
		for _, e := range x.Entries() {
			b.posts[next[e.Index]] = bankPosting{sv: int32(id), v: e.Value}
			next[e.Index]++
		}
	}
	return b, nil
}

// Tags returns the tag names in decision order (sorted ascending). Callers
// must not modify the returned slice.
func (b *KernelBank) Tags() []string { return b.tags }

// NumTags reports the bank size.
func (b *KernelBank) NumTags() int { return len(b.tags) }

// NumSVs reports the number of distinct support vectors — the scratch
// length DecisionsInto needs.
func (b *KernelBank) NumSVs() int { return len(b.norms) }

// DecisionsInto computes every tag's decision value at x, writing them
// into dst (grown if needed) indexed like Tags(). scratch holds the
// kernel row; it is only workspace (overwritten, nothing is read back from
// it) and is replaced locally when shorter than NumSVs(). With a dst of
// capacity NumTags() and a scratch of length NumSVs() the call allocates
// nothing.
func (b *KernelBank) DecisionsInto(x *vector.Sparse, dst, scratch []float64) []float64 {
	nt := len(b.tags)
	if cap(dst) < nt {
		dst = make([]float64, nt)
	}
	dst = dst[:nt]
	if len(scratch) < len(b.norms) {
		scratch = make([]float64, len(b.norms))
	}
	row := scratch[:len(b.norms)]
	clear(row)
	// Entries are sorted ascending, so the ids no support vector can match
	// — past the bank's largest, or negative — form a suffix and a prefix.
	ents := x.Entries()
	dim := len(b.colStart) - 1
	for len(ents) > 0 && int(ents[len(ents)-1].Index) >= dim {
		ents = ents[:len(ents)-1]
	}
	for len(ents) > 0 && ents[0].Index < 0 {
		ents = ents[1:]
	}
	for _, e := range ents {
		q := e.Value
		for _, p := range b.posts[b.colStart[e.Index]:b.colStart[e.Index+1]] {
			row[p.sv] += p.v * q
		}
	}
	var xn float64
	if b.kernel.Kind == KernelRBF {
		xn = x.SquaredNorm()
	}
	for id, dot := range row {
		row[id] = b.kernel.fromDot(dot, b.norms[id], xn)
	}
	for t := range dst {
		sum := b.bias[t]
		for _, term := range b.terms[b.tagStart[t]:b.tagStart[t+1]] {
			sum += term.coeff * row[term.sv]
		}
		dst[t] = sum
	}
	return dst
}
