// Package wire provides the binary serialization of the objects peers
// exchange — sparse vectors and calibrated model sets. The simulator
// charges message sizes from analytic WireSize estimates; this package is
// the deployable encoding those estimates model, and its tests pin the two
// within tolerance so the cost accounting stays honest.
//
// Format: little-endian, length-prefixed. Vectors encode as
// [n uint32] then n × ([index uint32][value float64]); strings as
// [len uint16][bytes]; a model set as its tag count, then per tag in
// ascending order the tag, the model's bias, dim and non-zero count, its
// (index, value) entries in ascending index order, and its calibration.
// Every payload a peer handles is complete in memory before it is decoded
// (a frame, a file), so there is one codec over bytes: encoders append to
// a []byte, decoders read through a bounds-checked Cursor. A model set has
// exactly one encoding, and the decoder accepts only that one. No
// reflection, no allocation surprises.
package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"

	"repro/internal/svm"
	"repro/internal/vector"
)

// ErrCorrupt is wrapped by all decode errors caused by malformed input.
var ErrCorrupt = fmt.Errorf("wire: corrupt input")

// Decoder allocation budgets. A length prefix is attacker-controlled and
// costs the sender nothing, so no decoder allocates proportionally to a
// claimed length before checking it against the bytes that actually
// remain. A model set is only ever held sparse: a claimed dimension sizes
// nothing, and what a set costs its receiver is counted in decoded
// entries, each backed by its 12 bytes of payload. The budgets below bound
// a single call even when every prefix lies as hard as the caps allow.
const (
	// maxModelDim bounds one model's claimed dimension (honest models use
	// HashDim 1<<16, the cap realnet's admission enforces).
	maxModelDim = 1 << 24
	// maxModelSetEntries bounds the decoded non-zero weights across every
	// model of one set (96 MiB of index/value slab at the cap).
	maxModelSetEntries = 1 << 23
	// maxEncodedBytes bounds what the io.Reader forms buffer before
	// decoding (an honest set is a few hundred KB; realnet refuses frames
	// past the same size).
	maxEncodedBytes = 64 << 20
	// entryBytes is one encoded (index uint32, value float64) pair;
	// modelHeaderBytes a model's bias, dim and nnz; calibrationBytes its
	// Platt A, B and accuracy.
	entryBytes       = 12
	modelHeaderBytes = 16
	calibrationBytes = 24
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

// CalibratedModel is one tag's entry in a published model set: a linear
// one-vs-all model in its sparse published form, together with its Platt
// calibration and cross-validated accuracy. This is the unit realnet peers
// gossip.
type CalibratedModel struct {
	Model    *svm.SparseModel
	Platt    svm.PlattParams
	Accuracy float64
}

// ModelSetSize is the exact length of set's encoding.
func ModelSetSize(set map[string]CalibratedModel) int {
	n := 2
	for tag, cm := range set {
		n += 2 + len(tag) + modelHeaderBytes + entryBytes*len(cm.Model.Index) + calibrationBytes
	}
	return n
}

// AppendModelSet appends the encoding of a per-tag calibrated model bank
// in sorted tag order, so identical sets always serialize to identical
// bytes. Each record is
// [tag string][bias float64][dim uint32][nnz uint32][nnz × entry][Platt A][Platt B][accuracy],
// written straight from the model's index/value pairs into b grown once
// to the exact size.
func AppendModelSet(b []byte, set map[string]CalibratedModel) ([]byte, error) {
	tags := make([]string, 0, len(set))
	for tag := range set {
		tags = append(tags, tag)
	}
	sort.Strings(tags)
	b = slices.Grow(b, ModelSetSize(set))
	b = le.AppendUint16(b, uint16(len(tags)))
	for _, tag := range tags {
		var err error
		if b, err = AppendString(b, tag); err != nil {
			return nil, err
		}
		cm := set[tag]
		m := cm.Model
		if len(m.Index) != len(m.Value) {
			return nil, fmt.Errorf("wire: tag %q has %d indices for %d values", tag, len(m.Index), len(m.Value))
		}
		b = le.AppendUint64(b, math.Float64bits(m.Bias))
		b = le.AppendUint32(b, uint32(m.Dim))
		b = le.AppendUint32(b, uint32(len(m.Index)))
		for k, idx := range m.Index {
			b = appendEntry(b, uint32(idx), m.Value[k])
		}
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
// holds; bytes past the set are corrupt input.
func ReadModelSet(r io.Reader) (map[string]CalibratedModel, error) {
	c, err := readAll(r)
	if err != nil {
		return nil, err
	}
	set, err := DecodeModelSet(c)
	if err != nil {
		return nil, err
	}
	if rest := len(c.Rest()); rest != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after the model set", ErrCorrupt, rest)
	}
	return set, nil
}

// record is one set member as laid out on the wire; tag and entries alias
// the payload.
type record struct {
	tag      []byte
	bias     float64
	dim      uint32
	entries  []byte // nnz × (index uint32, value float64)
	platt    svm.PlattParams
	accuracy float64
}

// nextRecord reads one set member whose entries may draw at most budget
// from the set's entry budget. The budget and the caps are checked on the
// header, before the entries are taken, so no claim buys anything.
func nextRecord(c *Cursor, budget int) (record, error) {
	r := record{tag: c.Take(int(c.U16())), bias: c.F64(), dim: c.U32()}
	nnz := c.U32()
	if c.Err() != nil {
		return r, fmt.Errorf("model header: %w", c.Err())
	}
	if r.dim > maxModelDim || nnz > r.dim {
		return r, fmt.Errorf("%w: tag %q: dim=%d nnz=%d (max dim %d)", ErrCorrupt, r.tag, r.dim, nnz, maxModelDim)
	}
	if int64(nnz) > int64(budget) {
		return r, fmt.Errorf("%w: model set exceeds %d entries", ErrCorrupt, maxModelSetEntries)
	}
	r.entries = c.Take(entryBytes * int(nnz))
	r.platt = svm.PlattParams{A: c.F64(), B: c.F64()}
	r.accuracy = c.F64()
	if c.Err() != nil {
		return r, fmt.Errorf("tag %q: %w", r.tag, c.Err())
	}
	return r, nil
}

// checkEntries refuses a record whose entries are not canonical: indices
// strictly ascending and below dim (a duplicate would count twice in a
// fused matrix), and no explicit ±0 value (the encoder never writes one).
func checkEntries(r record) error {
	prev := int64(-1)
	for p := r.entries; len(p) > 0; p = p[entryBytes:] {
		idx := int64(le.Uint32(p))
		if idx <= prev || idx >= int64(r.dim) {
			return fmt.Errorf("%w: tag %q: index %d after %d (dim %d)", ErrCorrupt, r.tag, idx, prev, r.dim)
		}
		if math.Float64frombits(le.Uint64(p[4:])) == 0 {
			return fmt.Errorf("%w: tag %q: explicit zero at index %d", ErrCorrupt, r.tag, idx)
		}
		prev = idx
	}
	return nil
}

// DecodeModelSet decodes a bank encoded by AppendModelSet, leaving c just
// past it. Only the canonical encoding is accepted: tags strictly
// ascending, and every model's entries as checkEntries requires, so an
// accepted set re-encodes to exactly the bytes it came from. A header
// pass over a copy of the cursor checks every record first; then every
// tag's indices and values are decoded into one slab of exactly the
// entries the payload holds, sub-sliced per tag with capped capacity.
func DecodeModelSet(c *Cursor) (map[string]CalibratedModel, error) {
	n := int(c.U16())
	if c.Err() != nil {
		return nil, fmt.Errorf("model set size: %w", c.Err())
	}
	scan := *c
	budget := maxModelSetEntries
	var prev []byte
	for i := 0; i < n; i++ {
		r, err := nextRecord(&scan, budget)
		if err != nil {
			return nil, err
		}
		if i > 0 && bytes.Compare(r.tag, prev) <= 0 {
			return nil, fmt.Errorf("%w: tag %q after %q", ErrCorrupt, r.tag, prev)
		}
		if err := checkEntries(r); err != nil {
			return nil, err
		}
		prev = r.tag
		budget -= len(r.entries) / entryBytes
	}
	total := maxModelSetEntries - budget
	index, value := make([]int32, total), make([]float64, total)
	models := make([]svm.SparseModel, n)
	set := make(map[string]CalibratedModel, n)
	for i := range models {
		r, _ := nextRecord(c, maxModelSetEntries) // the header pass accepted it
		nnz := len(r.entries) / entryBytes
		m := &models[i]
		*m = svm.SparseModel{Index: index[:nnz:nnz], Value: value[:nnz:nnz], Dim: int(r.dim), Bias: r.bias}
		index, value = index[nnz:], value[nnz:]
		for k := range nnz {
			e := r.entries[entryBytes*k:]
			m.Index[k] = int32(le.Uint32(e))
			m.Value[k] = math.Float64frombits(le.Uint64(e[4:]))
		}
		set[string(r.tag)] = CalibratedModel{Model: m, Platt: r.platt, Accuracy: r.accuracy}
	}
	return set, nil
}
