// Package wire provides the binary serialization of the objects peers
// exchange — sparse vectors, linear models and calibrated model sets. The
// simulator charges message sizes from analytic WireSize estimates; this
// package is the deployable encoding those estimates model, and its tests
// pin the two within tolerance so the cost accounting stays honest.
//
// Format: little-endian, length-prefixed. Vectors encode as
// [n uint32] then n × ([index uint32][value float64]); strings as
// [len uint16][bytes]. Every payload a peer handles is complete in memory
// before it is decoded (a frame, a file), so there is one codec over
// bytes: encoders append to a []byte, decoders read through a
// bounds-checked Cursor. No reflection, no allocation surprises.
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
// costs the sender nothing, so no decoder allocates proportionally to a
// claimed length before checking it against the bytes that actually
// remain, and dense weight arrays are materialized only after their sparse
// entries were found present. The budgets below bound the decoded size a
// single call can reach even when every prefix lies as hard as the caps
// allow.
const (
	// maxModelDim bounds one linear model's dense weight vector
	// (128 MiB of float64 at the cap; honest models use HashDim 1<<16).
	maxModelDim = 1 << 24
	// maxModelSetWeights bounds the total dense weights across every
	// model of one decoded set (64 MiB of float64 at the cap).
	maxModelSetWeights = 1 << 23
	// maxEncodedBytes bounds what the io.Reader forms buffer before
	// decoding (an honest set is a few hundred KB; realnet refuses frames
	// past the same size).
	maxEncodedBytes = 64 << 20
	// entryBytes is one encoded (index uint32, value float64) pair;
	// minModelRecord is the smallest encoded set member: an empty tag, a
	// model header and three calibration floats.
	entryBytes     = 12
	minModelRecord = 2 + 16 + 24
)

var le = binary.LittleEndian

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

// Cursor is a bounds-checked read position over a payload held in memory.
// The first read past the end records an ErrCorrupt-wrapping error and
// every read after it returns zero, so a decoder reads a whole record and
// checks Err once.
type Cursor struct {
	buf []byte // what is left to read
	err error
}

// NewCursor returns a cursor at the start of p.
func NewCursor(p []byte) *Cursor { return &Cursor{buf: p} }

// Err returns the error of the first failed read, or nil.
func (c *Cursor) Err() error { return c.err }

// Rest returns the bytes not yet read, without consuming them.
func (c *Cursor) Rest() []byte { return c.buf }

// Take consumes and returns the next n bytes (aliasing the payload), or nil
// once the cursor has failed.
func (c *Cursor) Take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || n > len(c.buf) {
		c.err = fmt.Errorf("%w: need %d bytes, %d remain", ErrCorrupt, n, len(c.buf))
		c.buf = nil
		return nil
	}
	p := c.buf[:n]
	c.buf = c.buf[n:]
	return p
}

// U16 reads a little-endian uint16.
func (c *Cursor) U16() uint16 {
	if p := c.Take(2); p != nil {
		return le.Uint16(p)
	}
	return 0
}

// U32 reads a little-endian uint32.
func (c *Cursor) U32() uint32 {
	if p := c.Take(4); p != nil {
		return le.Uint32(p)
	}
	return 0
}

// U64 reads a little-endian uint64.
func (c *Cursor) U64() uint64 {
	if p := c.Take(8); p != nil {
		return le.Uint64(p)
	}
	return 0
}

// F64 reads a float64 stored as its IEEE-754 bits.
func (c *Cursor) F64() float64 { return math.Float64frombits(c.U64()) }

// Str reads a [len uint16][bytes] string.
func (c *Cursor) Str() string { return string(c.Take(int(c.U16()))) }

// AppendString appends s as [len uint16][bytes].
func AppendString(b []byte, s string) ([]byte, error) {
	if len(s) > math.MaxUint16 {
		return b, fmt.Errorf("wire: string too long (%d)", len(s))
	}
	return append(le.AppendUint16(b, uint16(len(s))), s...), nil
}

func appendEntry(b []byte, index uint32, value float64) []byte {
	return le.AppendUint64(le.AppendUint32(b, index), math.Float64bits(value))
}

// readAll buffers what an io.Reader form decodes, up to maxEncodedBytes.
func readAll(r io.Reader) (*Cursor, error) {
	p, err := io.ReadAll(io.LimitReader(r, maxEncodedBytes+1))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if len(p) > maxEncodedBytes {
		return nil, fmt.Errorf("%w: more than %d encoded bytes", ErrCorrupt, maxEncodedBytes)
	}
	return NewCursor(p), nil
}

func appendVector(b []byte, v *vector.Sparse) []byte {
	entries := v.Entries()
	b = le.AppendUint32(b, uint32(len(entries)))
	for _, e := range entries {
		b = appendEntry(b, uint32(e.Index), e.Value)
	}
	return b
}

// WriteVector encodes v.
func WriteVector(w io.Writer, v *vector.Sparse) error {
	_, err := w.Write(appendVector(nil, v))
	return err
}

// ReadVector decodes a vector written by WriteVector from everything r
// holds. maxEntries bounds allocation against corrupt length prefixes
// (0 = 1<<20).
func ReadVector(r io.Reader, maxEntries int) (*vector.Sparse, error) {
	c, err := readAll(r)
	if err != nil {
		return nil, err
	}
	if maxEntries <= 0 {
		maxEntries = 1 << 20
	}
	n := c.U32()
	if int64(n) > int64(maxEntries) {
		return nil, fmt.Errorf("%w: vector claims %d entries (max %d)", ErrCorrupt, n, maxEntries)
	}
	// Taken before anything is sized from n: a claimed length the payload
	// does not back with bytes allocates nothing.
	p := c.Take(entryBytes * int(n))
	if c.Err() != nil {
		return nil, fmt.Errorf("vector: %w", c.Err())
	}
	entries := make([]vector.Entry, n)
	for i := range entries {
		e := p[entryBytes*i:]
		entries[i] = vector.Entry{Index: int32(le.Uint32(e)), Value: math.Float64frombits(le.Uint64(e[4:]))}
	}
	v, err := vector.FromEntries(entries)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return v, nil
}

// appendLinearModel encodes m sparsely (only non-zero weights) in one pass
// over W: the non-zero count is patched in once it is known.
func appendLinearModel(b []byte, m *svm.LinearModel) []byte {
	b = le.AppendUint64(b, math.Float64bits(m.Bias))
	b = le.AppendUint32(b, uint32(len(m.W)))
	nnzAt := len(b)
	b = le.AppendUint32(b, 0)
	nnz := uint32(0)
	for i, x := range m.W {
		if x != 0 {
			b = appendEntry(b, uint32(i), x)
			nnz++
		}
	}
	le.PutUint32(b[nnzAt:], nnz)
	return b
}

// WriteLinearModel encodes m sparsely (only non-zero weights).
func WriteLinearModel(w io.Writer, m *svm.LinearModel) error {
	_, err := w.Write(appendLinearModel(nil, m))
	return err
}

// ReadLinearModel decodes a model written by WriteLinearModel from
// everything r holds.
func ReadLinearModel(r io.Reader) (*svm.LinearModel, error) {
	c, err := readAll(r)
	if err != nil {
		return nil, err
	}
	return decodeLinearModel(c, maxModelDim)
}

// decodeLinearModel decodes one linear model with the dense dimension
// capped at maxDim; DecodeModelSet threads a shrinking budget through it so
// a set of lying prefixes cannot multiply per-model allocations. The dense
// weight array is materialized only once every sparse entry is known to be
// present — a claimed dim costs the sender nnz entries of real bytes first.
func decodeLinearModel(c *Cursor, maxDim int) (*svm.LinearModel, error) {
	bias, dim, nnz := c.F64(), c.U32(), c.U32()
	if c.Err() != nil {
		return nil, fmt.Errorf("linear model header: %w", c.Err())
	}
	if int64(dim) > int64(maxDim) || nnz > dim {
		return nil, fmt.Errorf("%w: dim=%d nnz=%d (max dim %d)", ErrCorrupt, dim, nnz, maxDim)
	}
	p := c.Take(entryBytes * int(nnz))
	if c.Err() != nil {
		return nil, fmt.Errorf("linear model weights: %w", c.Err())
	}
	m := &svm.LinearModel{W: make([]float64, dim), Bias: bias}
	for ; len(p) > 0; p = p[entryBytes:] {
		idx := le.Uint32(p)
		if idx >= dim {
			return nil, fmt.Errorf("%w: weight index %d >= dim %d", ErrCorrupt, idx, dim)
		}
		m.W[idx] = math.Float64frombits(le.Uint64(p[4:]))
	}
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

// AppendModelSet appends the encoding of a per-tag calibrated model bank
// in sorted tag order, so identical sets always serialize to identical
// bytes.
func AppendModelSet(b []byte, set map[string]CalibratedModel) ([]byte, error) {
	tags := make([]string, 0, len(set))
	for tag := range set {
		tags = append(tags, tag)
	}
	sort.Strings(tags)
	b = le.AppendUint16(b, uint16(len(tags)))
	for _, tag := range tags {
		var err error
		if b, err = AppendString(b, tag); err != nil {
			return nil, err
		}
		cm := set[tag]
		b = appendLinearModel(b, cm.Model)
		for _, v := range [3]float64{cm.Platt.A, cm.Platt.B, cm.Accuracy} {
			b = le.AppendUint64(b, math.Float64bits(v))
		}
	}
	return b, nil
}

// WriteModelSet encodes set (see AppendModelSet) to w.
func WriteModelSet(w io.Writer, set map[string]CalibratedModel) error {
	b, err := AppendModelSet(nil, set)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// ReadModelSet decodes a bank written by WriteModelSet from everything r
// holds.
func ReadModelSet(r io.Reader) (map[string]CalibratedModel, error) {
	c, err := readAll(r)
	if err != nil {
		return nil, err
	}
	return DecodeModelSet(c)
}

// DecodeModelSet decodes a bank encoded by AppendModelSet, leaving c just
// past it.
func DecodeModelSet(c *Cursor) (map[string]CalibratedModel, error) {
	n := int(c.U16())
	if c.Err() != nil {
		return nil, fmt.Errorf("model set size: %w", c.Err())
	}
	set := make(map[string]CalibratedModel, min(n, len(c.Rest())/minModelRecord))
	// Shrinking weight budget across the whole set: every model's claimed
	// dense dimension draws from it, so a set of lying prefixes is refused
	// long before the tag count times the per-model cap could multiply
	// into gigabytes.
	budget := maxModelSetWeights
	for i := 0; i < n; i++ {
		tag := c.Str()
		if budget <= 0 {
			return nil, fmt.Errorf("%w: model set exceeds %d total weights", ErrCorrupt, maxModelSetWeights)
		}
		m, err := decodeLinearModel(c, budget)
		if err != nil {
			return nil, fmt.Errorf("tag %q: %w", tag, err)
		}
		budget -= len(m.W)
		cm := CalibratedModel{Model: m, Platt: svm.PlattParams{A: c.F64(), B: c.F64()}, Accuracy: c.F64()}
		if c.Err() != nil {
			return nil, fmt.Errorf("tag %q calibration: %w", tag, c.Err())
		}
		set[tag] = cm
	}
	return set, nil
}
