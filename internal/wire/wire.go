// Package wire provides the binary serialization of the objects peers
// exchange — sparse vectors, linear models and kernel-SVM model sets. The
// simulator charges message sizes from analytic WireSize estimates; this
// package is the deployable encoding those estimates model, and its tests
// pin the two within tolerance so the cost accounting stays honest.
//
// Format: little-endian, length-prefixed. Vectors encode as
// [n uint32] then n × ([index uint32][value float64]); strings as
// [len uint16][bytes]. No reflection, no allocation surprises.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/svm"
	"repro/internal/vector"
)

// ErrCorrupt is wrapped by all decode errors caused by malformed input.
var ErrCorrupt = fmt.Errorf("wire: corrupt input")

// Decoder allocation budgets. A length prefix is attacker-controlled and
// costs the sender nothing, so no decoder may allocate proportionally to a
// claimed length before the corresponding bytes have actually arrived:
// slices grow incrementally (capped initial capacity) and dense weight
// arrays are materialized only after their sparse entries were fully read.
// The budgets below bound the decoded size a single call can reach even
// when every prefix lies as hard as the caps allow.
const (
	// maxModelDim bounds one linear model's dense weight vector
	// (128 MiB of float64 at the cap; honest models use HashDim 1<<16).
	maxModelDim = 1 << 24
	// maxModelSetWeights bounds the total dense weights across every
	// model of one decoded set (64 MiB of float64 at the cap).
	maxModelSetWeights = 1 << 23
	// maxKernelEntries bounds the total support-vector entries of one
	// decoded kernel model (64 MiB of entries at the cap).
	maxKernelEntries = 1 << 22
	// initialAlloc caps the capacity any decoder pre-allocates from a
	// length prefix alone.
	initialAlloc = 4096
)

// Checksum is the FNV-1a/64 digest of p. Gossip frames carry it over the
// encoded model set so a corrupted or tampered payload is rejected before
// the decoded set can touch any peer or model table. It is an integrity
// check, not authentication: a peer can forge a digest for its own bytes,
// but cannot have a frame mutate in flight undetected.
func Checksum(p []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range p {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// WriteVector encodes v.
func WriteVector(w io.Writer, v *vector.Sparse) error {
	entries := v.Entries()
	if err := binary.Write(w, binary.LittleEndian, uint32(len(entries))); err != nil {
		return err
	}
	for _, e := range entries {
		if err := binary.Write(w, binary.LittleEndian, uint32(e.Index)); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, math.Float64bits(e.Value)); err != nil {
			return err
		}
	}
	return nil
}

// ReadVector decodes a vector written by WriteVector. maxEntries bounds
// allocation against corrupt length prefixes (0 = 1<<20).
func ReadVector(r io.Reader, maxEntries int) (*vector.Sparse, error) {
	if maxEntries <= 0 {
		maxEntries = 1 << 20
	}
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, fmt.Errorf("%w: vector length: %v", ErrCorrupt, err)
	}
	if int(n) > maxEntries {
		return nil, fmt.Errorf("%w: vector claims %d entries (max %d)", ErrCorrupt, n, maxEntries)
	}
	// Grow incrementally: the claimed length alone must not size the
	// allocation, or a 4-byte prefix buys the sender maxEntries worth of
	// memory on a stream that then ends.
	entries := make([]vector.Entry, 0, min(int(n), initialAlloc))
	for i := 0; i < int(n); i++ {
		var idx uint32
		var bits uint64
		if err := binary.Read(r, binary.LittleEndian, &idx); err != nil {
			return nil, fmt.Errorf("%w: entry %d index: %v", ErrCorrupt, i, err)
		}
		if err := binary.Read(r, binary.LittleEndian, &bits); err != nil {
			return nil, fmt.Errorf("%w: entry %d value: %v", ErrCorrupt, i, err)
		}
		entries = append(entries, vector.Entry{Index: int32(idx), Value: math.Float64frombits(bits)})
	}
	v, err := vector.FromEntries(entries)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return v, nil
}

func writeString(w io.Writer, s string) error {
	if len(s) > math.MaxUint16 {
		return fmt.Errorf("wire: string too long (%d)", len(s))
	}
	if err := binary.Write(w, binary.LittleEndian, uint16(len(s))); err != nil {
		return err
	}
	_, err := w.Write([]byte(s))
	return err
}

func readString(r io.Reader) (string, error) {
	var n uint16
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", fmt.Errorf("%w: string length: %v", ErrCorrupt, err)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", fmt.Errorf("%w: string body: %v", ErrCorrupt, err)
	}
	return string(buf), nil
}

// WriteLinearModel encodes m sparsely (only non-zero weights).
func WriteLinearModel(w io.Writer, m *svm.LinearModel) error {
	if err := binary.Write(w, binary.LittleEndian, math.Float64bits(m.Bias)); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(m.W))); err != nil {
		return err
	}
	nnz := uint32(0)
	for _, x := range m.W {
		if x != 0 {
			nnz++
		}
	}
	if err := binary.Write(w, binary.LittleEndian, nnz); err != nil {
		return err
	}
	for i, x := range m.W {
		if x == 0 {
			continue
		}
		if err := binary.Write(w, binary.LittleEndian, uint32(i)); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, math.Float64bits(x)); err != nil {
			return err
		}
	}
	return nil
}

// ReadLinearModel decodes a model written by WriteLinearModel.
func ReadLinearModel(r io.Reader) (*svm.LinearModel, error) {
	return readLinearModelCapped(r, maxModelDim)
}

// readLinearModelCapped decodes one linear model with the dense dimension
// capped at maxDim; ReadModelSet threads a shrinking budget through it so a
// set of lying prefixes cannot multiply per-model allocations. The dense
// weight array is materialized only after every sparse entry was actually
// read — a claimed dim costs the sender nnz entries of real bytes first.
func readLinearModelCapped(r io.Reader, maxDim int) (*svm.LinearModel, error) {
	var bias uint64
	if err := binary.Read(r, binary.LittleEndian, &bias); err != nil {
		return nil, fmt.Errorf("%w: bias: %v", ErrCorrupt, err)
	}
	var dim, nnz uint32
	if err := binary.Read(r, binary.LittleEndian, &dim); err != nil {
		return nil, fmt.Errorf("%w: dim: %v", ErrCorrupt, err)
	}
	if err := binary.Read(r, binary.LittleEndian, &nnz); err != nil {
		return nil, fmt.Errorf("%w: nnz: %v", ErrCorrupt, err)
	}
	if maxDim > maxModelDim || maxDim < 0 {
		maxDim = maxModelDim
	}
	if int64(dim) > int64(maxDim) || nnz > dim {
		return nil, fmt.Errorf("%w: dim=%d nnz=%d (max dim %d)", ErrCorrupt, dim, nnz, maxDim)
	}
	type weight struct {
		idx  uint32
		bits uint64
	}
	weights := make([]weight, 0, min(int(nnz), initialAlloc))
	for i := uint32(0); i < nnz; i++ {
		var wt weight
		if err := binary.Read(r, binary.LittleEndian, &wt.idx); err != nil {
			return nil, fmt.Errorf("%w: weight %d: %v", ErrCorrupt, i, err)
		}
		if err := binary.Read(r, binary.LittleEndian, &wt.bits); err != nil {
			return nil, fmt.Errorf("%w: weight %d: %v", ErrCorrupt, i, err)
		}
		if wt.idx >= dim {
			return nil, fmt.Errorf("%w: weight index %d >= dim %d", ErrCorrupt, wt.idx, dim)
		}
		weights = append(weights, wt)
	}
	m := &svm.LinearModel{W: make([]float64, dim), Bias: math.Float64frombits(bias)}
	for _, wt := range weights {
		m.W[wt.idx] = math.Float64frombits(wt.bits)
	}
	return m, nil
}

// WriteKernelModel encodes a kernel model: parameters, bias and support
// vectors with coefficients.
func WriteKernelModel(w io.Writer, m *svm.KernelModel) error {
	hdr := []uint64{
		uint64(m.Kernel.Kind),
		math.Float64bits(m.Kernel.Gamma),
		math.Float64bits(m.Kernel.Coef0),
		uint64(m.Kernel.Degree),
		math.Float64bits(m.Bias),
	}
	for _, h := range hdr {
		if err := binary.Write(w, binary.LittleEndian, h); err != nil {
			return err
		}
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(m.SVs))); err != nil {
		return err
	}
	for _, sv := range m.SVs {
		if err := binary.Write(w, binary.LittleEndian, math.Float64bits(sv.Coeff)); err != nil {
			return err
		}
		if err := WriteVector(w, sv.X); err != nil {
			return err
		}
	}
	return nil
}

// ReadKernelModel decodes a model written by WriteKernelModel.
func ReadKernelModel(r io.Reader) (*svm.KernelModel, error) {
	var hdr [5]uint64
	for i := range hdr {
		if err := binary.Read(r, binary.LittleEndian, &hdr[i]); err != nil {
			return nil, fmt.Errorf("%w: kernel header: %v", ErrCorrupt, err)
		}
	}
	// Checked as the unsigned header word: converted first, 0xFFFF…FFFF
	// would become KernelKind(-1) and pass a signed upper-bound test.
	if hdr[0] > uint64(svm.KernelPoly) {
		return nil, fmt.Errorf("%w: kernel kind %d", ErrCorrupt, hdr[0])
	}
	m := &svm.KernelModel{
		Kernel: svm.Kernel{
			Kind:   svm.KernelKind(hdr[0]),
			Gamma:  math.Float64frombits(hdr[1]),
			Coef0:  math.Float64frombits(hdr[2]),
			Degree: int(hdr[3]),
		},
		Bias: math.Float64frombits(hdr[4]),
	}
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, fmt.Errorf("%w: SV count: %v", ErrCorrupt, err)
	}
	const maxSVs = 1 << 22
	if n > maxSVs {
		return nil, fmt.Errorf("%w: %d support vectors", ErrCorrupt, n)
	}
	// Shrinking entry budget across the whole model: many SVs each claiming
	// the per-vector maximum must not multiply into gigabytes.
	budget := maxKernelEntries
	for i := uint32(0); i < n; i++ {
		var bits uint64
		if err := binary.Read(r, binary.LittleEndian, &bits); err != nil {
			return nil, fmt.Errorf("%w: SV %d coeff: %v", ErrCorrupt, i, err)
		}
		if budget <= 0 {
			return nil, fmt.Errorf("%w: kernel model exceeds %d total SV entries", ErrCorrupt, maxKernelEntries)
		}
		x, err := ReadVector(r, budget)
		if err != nil {
			return nil, err
		}
		budget -= x.Len()
		m.SVs = append(m.SVs, svm.SupportVector{X: x, Coeff: math.Float64frombits(bits)})
	}
	m.Precompute() // rebuild the derived RBF norm cache (not serialized)
	return m, nil
}

// CalibratedModel is one tag's entry in a published model set: a linear
// one-vs-all model together with its Platt calibration and cross-validated
// accuracy. This is the unit realnet peers broadcast and gossip.
type CalibratedModel struct {
	Model    *svm.LinearModel
	Platt    svm.PlattParams
	Accuracy float64
}

// maxModelSetTags bounds a decoded model set against corrupt tag counts.
const maxModelSetTags = 1 << 16

// WriteModelSet encodes a per-tag calibrated model bank in sorted tag
// order, so identical sets always serialize to identical bytes.
func WriteModelSet(w io.Writer, set map[string]CalibratedModel) error {
	tags := make([]string, 0, len(set))
	for tag := range set {
		tags = append(tags, tag)
	}
	sort.Strings(tags)
	if err := binary.Write(w, binary.LittleEndian, uint16(len(tags))); err != nil {
		return err
	}
	for _, tag := range tags {
		if err := writeString(w, tag); err != nil {
			return err
		}
		cm := set[tag]
		if err := WriteLinearModel(w, cm.Model); err != nil {
			return err
		}
		for _, v := range [3]float64{cm.Platt.A, cm.Platt.B, cm.Accuracy} {
			if err := binary.Write(w, binary.LittleEndian, math.Float64bits(v)); err != nil {
				return err
			}
		}
	}
	return nil
}

// ReadModelSet decodes a bank written by WriteModelSet.
func ReadModelSet(r io.Reader) (map[string]CalibratedModel, error) {
	var n uint16
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, fmt.Errorf("%w: model set size: %v", ErrCorrupt, err)
	}
	if int(n) > maxModelSetTags {
		return nil, fmt.Errorf("%w: model set claims %d tags", ErrCorrupt, n)
	}
	set := make(map[string]CalibratedModel, min(int(n), initialAlloc))
	// Shrinking weight budget across the whole set: every model's claimed
	// dense dimension draws from it, so a set of lying prefixes is refused
	// long before the per-tag cap times the per-model cap could multiply
	// into gigabytes.
	budget := maxModelSetWeights
	for i := 0; i < int(n); i++ {
		tag, err := readString(r)
		if err != nil {
			return nil, err
		}
		if budget <= 0 {
			return nil, fmt.Errorf("%w: model set exceeds %d total weights", ErrCorrupt, maxModelSetWeights)
		}
		m, err := readLinearModelCapped(r, budget)
		if err != nil {
			return nil, err
		}
		budget -= len(m.W)
		var bits [3]uint64
		for j := range bits {
			if err := binary.Read(r, binary.LittleEndian, &bits[j]); err != nil {
				return nil, fmt.Errorf("%w: tag %q calibration: %v", ErrCorrupt, tag, err)
			}
		}
		set[tag] = CalibratedModel{
			Model:    m,
			Platt:    svm.PlattParams{A: math.Float64frombits(bits[0]), B: math.Float64frombits(bits[1])},
			Accuracy: math.Float64frombits(bits[2]),
		}
	}
	return set, nil
}

// WriteTagged encodes a tag name followed by a vector — the unit of a
// labeled-document transfer.
func WriteTagged(w io.Writer, tag string, v *vector.Sparse) error {
	if err := writeString(w, tag); err != nil {
		return err
	}
	return WriteVector(w, v)
}

// ReadTagged decodes a WriteTagged pair.
func ReadTagged(r io.Reader) (string, *vector.Sparse, error) {
	tag, err := readString(r)
	if err != nil {
		return "", nil, err
	}
	v, err := ReadVector(r, 0)
	return tag, v, err
}
