// Package cluster implements k-means clustering with k-means++ seeding.
// PACE peers cluster their local training documents and ship the resulting
// centroids alongside their linear models; remote peers use the centroids to
// select which models are "near" a test document.
package cluster

import (
	"errors"
	"math"
	"math/rand"

	"repro/internal/vector"
)

// ErrNoData is returned when clustering is attempted on an empty set.
var ErrNoData = errors.New("cluster: no data")

// Options configures KMeans.
type Options struct {
	// K is the number of clusters; it is clamped to len(data).
	K int
	// Seed drives k-means++ seeding.
	Seed int64
}

// Lloyd iterations stop after maxIterations, or earlier once no centroid
// moves more than tol.
const (
	maxIterations = 50
	tol           = 1e-6
)

// Result holds the output of a k-means run.
type Result struct {
	Centroids  []*vector.Sparse
	Assignment []int // Assignment[i] = centroid index of data[i]
	Inertia    float64
	Iterations int
}

// KMeans clusters data into at most opts.K groups using k-means++ seeding
// followed by Lloyd iterations.
func KMeans(data []*vector.Sparse, opts Options) (*Result, error) {
	if len(data) == 0 {
		return nil, ErrNoData
	}
	k := opts.K
	if k <= 0 {
		k = 1
	}
	if k > len(data) {
		k = len(data)
	}
	rng := rand.New(rand.NewSource(opts.Seed))

	centroids := seedPlusPlus(data, k, rng)
	assign := make([]int, len(data))
	res := &Result{}
	for iter := 0; iter < maxIterations; iter++ {
		res.Iterations = iter + 1
		// Assignment step.
		inertia := 0.0
		for i, x := range data {
			best, bestD := 0, math.Inf(1)
			for c, cent := range centroids {
				d := x.EuclideanDistance(cent)
				if d < bestD {
					best, bestD = c, d
				}
			}
			assign[i] = best
			inertia += bestD * bestD
		}
		res.Inertia = inertia
		// Update step.
		groups := make([][]*vector.Sparse, len(centroids))
		for i, x := range data {
			groups[assign[i]] = append(groups[assign[i]], x)
		}
		moved := 0.0
		for c := range centroids {
			if len(groups[c]) == 0 {
				// Re-seed an empty cluster at the point farthest from its
				// centroid to avoid dead clusters.
				far, farD := 0, -1.0
				for i, x := range data {
					d := x.EuclideanDistance(centroids[assign[i]])
					if d > farD {
						far, farD = i, d
					}
				}
				groups[c] = []*vector.Sparse{data[far]}
			}
			next := vector.Mean(groups[c])
			moved = math.Max(moved, next.EuclideanDistance(centroids[c]))
			centroids[c] = next
		}
		if moved <= tol {
			break
		}
	}
	res.Centroids = centroids
	res.Assignment = assign
	return res, nil
}

// seedPlusPlus picks k initial centroids with the k-means++ D² weighting.
func seedPlusPlus(data []*vector.Sparse, k int, rng *rand.Rand) []*vector.Sparse {
	centroids := make([]*vector.Sparse, 0, k)
	centroids = append(centroids, data[rng.Intn(len(data))].Clone())
	d2 := make([]float64, len(data))
	for len(centroids) < k {
		total := 0.0
		last := centroids[len(centroids)-1]
		for i, x := range data {
			d := x.EuclideanDistance(last)
			if len(centroids) == 1 || d*d < d2[i] {
				d2[i] = d * d
			}
			total += d2[i]
		}
		if total == 0 {
			// All remaining points coincide with chosen centroids.
			centroids = append(centroids, data[rng.Intn(len(data))].Clone())
			continue
		}
		r := rng.Float64() * total
		idx := 0
		for i, w := range d2 {
			r -= w
			if r <= 0 {
				idx = i
				break
			}
		}
		centroids = append(centroids, data[idx].Clone())
	}
	return centroids
}

// Nearest returns the index of the centroid closest to x (Euclidean), or -1
// for an empty centroid list.
func Nearest(centroids []*vector.Sparse, x *vector.Sparse) int {
	best, bestD := -1, math.Inf(1)
	for i, c := range centroids {
		if d := x.EuclideanDistance(c); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}
