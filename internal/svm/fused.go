package svm

import (
	"sort"

	"repro/internal/vector"
)

// FusedLinear scores a whole bank of one-vs-all LinearModels in a single
// pass over a document. The per-tag weight vectors are packed into one
// inverted score matrix mapping feature id -> per-tag weights, so scoring
// T tags costs one walk over the document's non-zero entries instead of T
// sparse-times-dense dot products over the same document — the dominant
// per-query cost once preprocessing is pooled.
//
// Two layouts share the contract, chosen by bank density and tag count at
// construction (see Layout):
//
//   - CSR: per feature, the (tag, weight) cells with non-zero weight.
//     Wins when weights are sparse relative to the tag count — the shape
//     of pruned per-peer ensembles (PACE, realnet) and of large tag
//     universes, where most features matter to few tags — and on dense
//     banks too narrow to block (fewer than blockedMinTags tags), where
//     padding to a full block would outweigh the blocked walk's savings.
//   - Blocked: per feature, a contiguous row of every tag's weight (zeros
//     included), padded to a multiple of blockWidth tags and scored
//     blockWidth lanes at a time through fixed-size array pointers. The
//     inner loop is fully unrolled with no bounds checks — the shape the
//     compiler (and the hardware's superscalar units) exploit best — and
//     the zero-padded tail lanes cost one multiply-by-zero each. This is
//     the default for every dense bank wide enough to fill a block.
//
// Scores are bit-identical to calling (*LinearModel).Decision per tag in
// both layouts: the document's entries are visited in ascending
// feature-id order, so every tag's partial sums accumulate in exactly the
// order DotDense uses, and the bias is added after the sum just as
// Decision does. Blocking happens across tags, never across features, so
// the blocked walk changes which tags advance together but not the order
// any single tag's sum accumulates in. (CSR skips zero weights, the
// blocked rows multiply by them and the tail lanes add exact zeros; none
// of these changes an IEEE-754 running sum DotDense could produce.) The
// svm tests pin this equality on randomized banks in both layouts.
//
// A FusedLinear is immutable after construction and safe for concurrent
// use; it is rebuilt whenever its underlying model bank changes
// (retraining, refine, serving Swap/Refresh).
type FusedLinear struct {
	tags []string
	bias []float64
	dim  int

	// CSR layout: cells[rowStart[f]:rowStart[f+1]] are feature f's
	// non-zero (tag, weight) cells.
	rowStart []int32
	cells    []fusedCell

	// Blocked layout: blocks[f*ntPad : (f+1)*ntPad] is feature f's weight
	// per tag, zero-padded to ntPad (len(tags) rounded up to a multiple
	// of blockWidth).
	blocks []float64
	ntPad  int
}

// fusedCell is one non-zero weight: the tag (as an index into Tags) it
// belongs to and its value.
type fusedCell struct {
	tag int32
	w   float64
}

// Layout identifies the physical packing of a FusedLinear score matrix.
type Layout int

const (
	// LayoutAuto lets the constructor choose by bank density and width:
	// blocked at denseLayoutThreshold fill or above with at least
	// blockedMinTags tags, CSR otherwise.
	LayoutAuto Layout = 0
	// LayoutCSR forces the sparse cell layout.
	LayoutCSR Layout = 1
	// LayoutBlocked forces the blockWidth-padded blocked rows. Its value
	// is pinned, gap included: the benchmark's svm.fused_layout row
	// reports these numbers and must not move.
	LayoutBlocked Layout = 3
)

func (l Layout) String() string {
	switch l {
	case LayoutAuto:
		return "auto"
	case LayoutCSR:
		return "csr"
	case LayoutBlocked:
		return "blocked"
	default:
		return "unknown"
	}
}

const (
	// denseLayoutThreshold is the bank fill fraction (non-zero weights
	// over dim*tags) from which the blocked layout replaces CSR: a 16-byte
	// CSR cell costs two dense slots, so well before half fill the dense
	// walk is both smaller per element and branch-free.
	denseLayoutThreshold = 0.25

	// blockWidth is the tag-block width of the blocked layout. Eight
	// float64 lanes span a whole cache line and unroll into straight-line
	// code the compiler schedules without bounds checks.
	blockWidth = 8

	// blockedMinTags is the minimum bank width for the blocked layout
	// under LayoutAuto: below it the zero-padded tail lanes outnumber the
	// real ones and the CSR walk is as cheap (BenchmarkFusedLayouts).
	blockedMinTags = 4
)

// NewFusedLinear packs a dense bank (per tag, TrainLinear's output) into a
// fused score matrix with the layout chosen automatically: a thin adapter
// that converts each model to its sparse form for NewFusedSparse. Returns
// nil for an empty bank, which callers treat as "no models".
func NewFusedLinear(models map[string]*LinearModel) *FusedLinear {
	sparse := make(map[string]*SparseModel, len(models))
	for tag, m := range models {
		sparse[tag] = m.Sparse()
	}
	return NewFusedSparse(sparse, LayoutAuto)
}

// NewFusedSparse packs models (a per-tag one-vs-all bank in its published,
// sparse form) into a fused score matrix. LayoutAuto chooses the packing
// by bank density and width; the other layouts force one, the escape
// hatch benchmarks and layout-equality tests use to score the same bank
// through every packing. Every index must lie below its model's Dim (the
// wire decoder and LinearModel.Sparse guarantee it). Returns nil for an
// empty bank.
func NewFusedSparse(models map[string]*SparseModel, layout Layout) *FusedLinear {
	if len(models) == 0 {
		return nil
	}
	tags := make([]string, 0, len(models))
	for tag := range models {
		tags = append(tags, tag)
	}
	sort.Strings(tags)
	dim := 0
	nnz := 0
	for _, tag := range tags {
		m := models[tag]
		dim = max(dim, m.Dim)
		nnz += len(m.Index)
	}
	f := &FusedLinear{
		tags: tags,
		bias: make([]float64, len(tags)),
		dim:  dim,
	}
	for ti, tag := range tags {
		f.bias[ti] = models[tag].Bias
	}
	dense := len(tags) >= blockedMinTags && float64(nnz) >= denseLayoutThreshold*float64(dim)*float64(len(tags))
	if layout == LayoutBlocked || layout == LayoutAuto && dense {
		f.ntPad = (len(tags) + blockWidth - 1) / blockWidth * blockWidth
		f.blocks = make([]float64, dim*f.ntPad)
		for ti, tag := range tags {
			m := models[tag]
			for k, fid := range m.Index {
				f.blocks[int(fid)*f.ntPad+ti] = m.Value[k]
			}
		}
		return f
	}
	// LayoutCSR. Counting pass: cells per feature row, then prefix sums.
	f.rowStart = make([]int32, dim+1)
	f.cells = make([]fusedCell, nnz)
	for _, tag := range tags {
		for _, fid := range models[tag].Index {
			f.rowStart[fid+1]++
		}
	}
	for fid := 0; fid < dim; fid++ {
		f.rowStart[fid+1] += f.rowStart[fid]
	}
	// Fill pass: rowStart[fid] is row fid's write cursor, so each row ends
	// up listing its cells in ascending tag index (tags run in sorted
	// order) and each cursor ends on the next row's start; one shift puts
	// every start back.
	for ti, tag := range tags {
		m := models[tag]
		for k, fid := range m.Index {
			f.cells[f.rowStart[fid]] = fusedCell{tag: int32(ti), w: m.Value[k]}
			f.rowStart[fid]++
		}
	}
	copy(f.rowStart[1:], f.rowStart[:dim])
	f.rowStart[0] = 0
	return f
}

// Tags returns the tag names in score order (sorted ascending). Callers
// must not modify the returned slice.
func (f *FusedLinear) Tags() []string { return f.tags }

// Layout reports the physical packing this matrix was built with.
func (f *FusedLinear) Layout() Layout {
	if f.blocks != nil {
		return LayoutBlocked
	}
	return LayoutCSR
}

// ScoreEntriesInto computes the raw decision value w_t·x + b_t for every
// tag in one ascending pass over the document's entries, writing the
// results into dst (grown if needed) indexed like Tags(). The entries
// must be sorted by ascending feature id with no duplicates — the
// vector.Sparse invariant — and are only read, never retained: this is
// the streaming terminal's entry point, fed directly from pooled
// preprocessing scratch without materializing a *vector.Sparse. It
// allocates only when dst is too small; pass a reused buffer for a
// zero-allocation steady state.
func (f *FusedLinear) ScoreEntriesInto(entries []vector.Entry, dst []float64) []float64 {
	nt := len(f.tags)
	need := nt
	if f.blocks != nil {
		// The blocked walk accumulates into the padded tail lanes too, so
		// the scratch must span whole blocks; the result is still dst[:nt].
		need = f.ntPad
	}
	if cap(dst) < need {
		dst = make([]float64, need)
	}
	dim := int32(f.dim)
	if f.blocks != nil {
		pad := dst[:f.ntPad]
		clear(pad)
		ntPad := f.ntPad
		blocks := f.blocks
		// Entries are sorted ascending, so indices past the training dim
		// form a suffix: trim it once instead of branching per entry.
		ents := entries
		for len(ents) > 0 && ents[len(ents)-1].Index >= dim {
			ents = ents[:len(ents)-1]
		}
		// Loop order: blocks outer, entries inner. Each 8-tag block keeps
		// its eight partial sums in registers for the whole entry walk, so
		// the hot loop issues no accumulator loads/stores — only the weight
		// reads; the walk is unrolled two entries deep to amortize loop
		// overhead. Per tag the adds still consume entries in ascending-id
		// order (the paired statements stay separate, never fused into
		// v0*r0+v1*r1), so every running sum is the same IEEE-754 sequence
		// as per-tag Decision.
		for b := 0; b < ntPad; b += blockWidth {
			var a0, a1, a2, a3, a4, a5, a6, a7 float64
			i := 0
			for ; i+1 < len(ents); i += 2 {
				e0, e1 := ents[i], ents[i+1]
				r0 := (*[blockWidth]float64)(blocks[int(e0.Index)*ntPad+b:])
				r1 := (*[blockWidth]float64)(blocks[int(e1.Index)*ntPad+b:])
				v0, v1 := e0.Value, e1.Value
				a0 += v0 * r0[0]
				a0 += v1 * r1[0]
				a1 += v0 * r0[1]
				a1 += v1 * r1[1]
				a2 += v0 * r0[2]
				a2 += v1 * r1[2]
				a3 += v0 * r0[3]
				a3 += v1 * r1[3]
				a4 += v0 * r0[4]
				a4 += v1 * r1[4]
				a5 += v0 * r0[5]
				a5 += v1 * r1[5]
				a6 += v0 * r0[6]
				a6 += v1 * r1[6]
				a7 += v0 * r0[7]
				a7 += v1 * r1[7]
			}
			if i < len(ents) {
				e := ents[i]
				r := (*[blockWidth]float64)(blocks[int(e.Index)*ntPad+b:])
				v := e.Value
				a0 += v * r[0]
				a1 += v * r[1]
				a2 += v * r[2]
				a3 += v * r[3]
				a4 += v * r[4]
				a5 += v * r[5]
				a6 += v * r[6]
				a7 += v * r[7]
			}
			d := (*[blockWidth]float64)(pad[b:])
			d[0], d[1], d[2], d[3] = a0, a1, a2, a3
			d[4], d[5], d[6], d[7] = a4, a5, a6, a7
		}
		dst = dst[:nt]
	} else {
		dst = dst[:nt]
		clear(dst)
		cells, rowStart := f.cells, f.rowStart
		for _, e := range entries {
			if e.Index >= dim {
				continue
			}
			hi := rowStart[e.Index+1]
			for k := rowStart[e.Index]; k < hi; k++ {
				c := cells[k]
				dst[c.tag] += e.Value * c.w
			}
		}
	}
	for i := range dst {
		dst[i] += f.bias[i]
	}
	return dst
}
