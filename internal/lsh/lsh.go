// Package lsh implements a random-hyperplane locality-sensitive-hash index
// for cosine similarity (Charikar's SimHash family). PACE peers index the
// centroids of remote models with it and, given a test document, retrieve
// the top-k "nearest" models cheaply.
package lsh

import (
	"math"
	"sort"
	"sync"

	"repro/internal/vector"
)

// Options configures an Index.
type Options struct {
	// Planes is the number of random hyperplanes per table (signature
	// bits); default 12.
	Planes int
	// Tables is the number of independent hash tables; more tables raise
	// recall at the cost of memory; default 4.
	Tables int
	// Seed drives hyperplane generation.
	Seed int64
}

// Neighbor is one query result: the indexed item id and its cosine
// similarity to the query.
type Neighbor struct {
	ID     int
	Cosine float64
}

// Index maps item ids to vectors and answers approximate top-k cosine
// queries. It is safe for concurrent use.
type Index struct {
	opts   Options
	mu     sync.RWMutex
	planes [][]planeEntry // [table*planes+p] sparse random hyperplane coeffs
	tables []map[uint64][]int
	items  map[int]*vector.Sparse
}

// planeEntry caches the Gaussian coefficient of a hyperplane for one
// feature dimension, drawn on demand so the index works with unbounded
// vocabularies.
type planeEntry struct {
	dim   int32
	coeff float64
}

// New returns an empty index.
func New(opts Options) *Index {
	if opts.Planes <= 0 {
		opts.Planes = 12
	}
	if opts.Planes > 64 {
		opts.Planes = 64
	}
	if opts.Tables <= 0 {
		opts.Tables = 4
	}
	idx := &Index{
		opts:   opts,
		planes: make([][]planeEntry, opts.Tables*opts.Planes),
		tables: make([]map[uint64][]int, opts.Tables),
		items:  make(map[int]*vector.Sparse),
	}
	for i := range idx.tables {
		idx.tables[i] = make(map[uint64][]int)
	}
	return idx
}

// coeff returns the hyperplane coefficient for plane p at dimension d,
// generating coefficients deterministically in dimension order.
func (ix *Index) coeff(p int, d int32) float64 {
	entries := ix.planes[p]
	// Binary search the cached entries.
	lo := sort.Search(len(entries), func(i int) bool { return entries[i].dim >= d })
	if lo < len(entries) && entries[lo].dim == d {
		return entries[lo].coeff
	}
	// Coefficients must depend only on (seed, p, d) so every vector sees
	// the same hyperplane regardless of insertion order; derive them from
	// a per-(p, d) hash rather than a sequential random stream.
	h := (uint64(p+1)*0x9E3779B97F4A7C15 ^ uint64(uint32(d))*0xBF58476D1CE4E5B9) + uint64(ix.opts.Seed)*0xD6E8FEB86659FD93
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	// Box-Muller on two uniform halves of h for an approximately Gaussian
	// coefficient; exact Gaussianity is not required by the LSH guarantee,
	// any symmetric distribution with full support works.
	u1 := float64(h&0xFFFFFFFF)/4294967296.0 + 1e-12
	u2 := float64(h>>32) / 4294967296.0
	g := gauss(u1, u2)
	ix.planes[p] = append(entries, planeEntry{}) // grow
	copy(ix.planes[p][lo+1:], ix.planes[p][lo:])
	ix.planes[p][lo] = planeEntry{dim: d, coeff: g}
	return g
}

// gauss maps two uniforms in (0,1] to a standard normal via Box-Muller.
func gauss(u1, u2 float64) float64 {
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// sigScratch holds the pooled scratch of signature computation: per-plane
// dot accumulators and the per-table signatures a Query reuses between its
// exact and Hamming-widened candidate phases (previously recomputed).
// Scratch never escapes the call that took it from the pool.
type sigScratch struct {
	dots []float64
	sigs []uint64
}

var sigPool = sync.Pool{New: func() any { return new(sigScratch) }}

// signature computes the bit signature of v under table t.
func (ix *Index) signature(t int, v *vector.Sparse) uint64 {
	sc := sigPool.Get().(*sigScratch)
	sig := ix.signatureInto(t, v, sc)
	sigPool.Put(sc)
	return sig
}

// signatureInto is signature with caller-provided scratch. Per plane, the
// dot product accumulates over v's entries in ascending feature order —
// the same order as the historical per-plane loop, so signatures are
// unchanged.
func (ix *Index) signatureInto(t int, v *vector.Sparse, sc *sigScratch) uint64 {
	planes := ix.opts.Planes
	if cap(sc.dots) < planes {
		sc.dots = make([]float64, planes)
	}
	dots := sc.dots[:planes]
	for p := range dots {
		dots[p] = 0
	}
	base := t * planes
	for _, e := range v.Entries() {
		for p := 0; p < planes; p++ {
			dots[p] += e.Value * ix.coeff(base+p, e.Index)
		}
	}
	var sig uint64
	for p, dot := range dots {
		if dot >= 0 {
			sig |= 1 << uint(p)
		}
	}
	return sig
}

// Add indexes vector v under id, replacing any previous vector with the
// same id.
func (ix *Index) Add(id int, v *vector.Sparse) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if _, exists := ix.items[id]; exists {
		ix.removeLocked(id)
	}
	ix.items[id] = v
	for t := range ix.tables {
		sig := ix.signature(t, v)
		ix.tables[t][sig] = append(ix.tables[t][sig], id)
	}
}

// Remove deletes id from the index; removing an absent id is a no-op.
func (ix *Index) Remove(id int) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.removeLocked(id)
}

func (ix *Index) removeLocked(id int) {
	v, ok := ix.items[id]
	if !ok {
		return
	}
	delete(ix.items, id)
	for t := range ix.tables {
		sig := ix.signature(t, v)
		bucket := ix.tables[t][sig]
		for i, got := range bucket {
			if got == id {
				ix.tables[t][sig] = append(bucket[:i], bucket[i+1:]...)
				break
			}
		}
		if len(ix.tables[t][sig]) == 0 {
			delete(ix.tables[t], sig)
		}
	}
}

// Len reports the number of indexed items.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.items)
}

// Query returns up to k indexed items most cosine-similar to q. Candidates
// are drawn from matching LSH buckets in every table; when the buckets
// yield fewer than k candidates the search widens to signatures at Hamming
// distance 1, and finally falls back to a linear scan so the result is
// never empty while items exist. Exact cosine re-ranking orders the final
// candidates, with ties broken by ascending id for determinism.
func (ix *Index) Query(q *vector.Sparse, k int) []Neighbor {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if k <= 0 || len(ix.items) == 0 {
		return nil
	}
	// Compute each table's query signature once into pooled scratch; the
	// Hamming-distance-1 widening below reuses them instead of redoing
	// the planes*nnz dot products per table.
	sc := sigPool.Get().(*sigScratch)
	if cap(sc.sigs) < len(ix.tables) {
		sc.sigs = make([]uint64, len(ix.tables))
	}
	sigs := sc.sigs[:len(ix.tables)]
	for t := range ix.tables {
		sigs[t] = ix.signatureInto(t, q, sc)
	}
	cand := make(map[int]bool)
	for t := range ix.tables {
		for _, id := range ix.tables[t][sigs[t]] {
			cand[id] = true
		}
	}
	if len(cand) < k {
		for t := range ix.tables {
			for p := 0; p < ix.opts.Planes; p++ {
				for _, id := range ix.tables[t][sigs[t]^(1<<uint(p))] {
					cand[id] = true
				}
			}
		}
	}
	sigPool.Put(sc)
	if len(cand) < k {
		for id := range ix.items {
			cand[id] = true
		}
	}
	out := make([]Neighbor, 0, len(cand))
	for id := range cand {
		out = append(out, Neighbor{ID: id, Cosine: q.Cosine(ix.items[id])})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cosine != out[j].Cosine {
			return out[i].Cosine > out[j].Cosine
		}
		return out[i].ID < out[j].ID
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}
