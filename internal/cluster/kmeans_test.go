package cluster

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/vector"
)

// blobs generates k well-separated Gaussian clusters of n points each.
func blobs(rng *rand.Rand, k, n int) ([]*vector.Sparse, []int) {
	var data []*vector.Sparse
	var labels []int
	for c := 0; c < k; c++ {
		for i := 0; i < n; i++ {
			data = append(data, vector.FromMap(map[int32]float64{
				0: float64(c)*10 + rng.NormFloat64(),
				1: float64(c)*10 + rng.NormFloat64(),
			}))
			labels = append(labels, c)
		}
	}
	return data, labels
}

func TestKMeansRecoversBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data, labels := blobs(rng, 3, 40)
	res, err := KMeans(data, Options{K: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centroids) != 3 {
		t.Fatalf("got %d centroids", len(res.Centroids))
	}
	// Every true cluster should map to exactly one k-means cluster.
	seen := map[int]map[int]int{}
	for i, a := range res.Assignment {
		if seen[labels[i]] == nil {
			seen[labels[i]] = map[int]int{}
		}
		seen[labels[i]][a]++
	}
	for lbl, m := range seen {
		// Majority assignment should dominate.
		total, max := 0, 0
		for _, c := range m {
			total += c
			if c > max {
				max = c
			}
		}
		if float64(max)/float64(total) < 0.95 {
			t.Errorf("cluster %d split across k-means clusters: %v", lbl, m)
		}
	}
}

func TestKMeansErrorsAndClamping(t *testing.T) {
	if _, err := KMeans(nil, Options{K: 2}); err != ErrNoData {
		t.Errorf("err = %v, want ErrNoData", err)
	}
	one := []*vector.Sparse{vector.FromMap(map[int32]float64{0: 1})}
	res, err := KMeans(one, Options{K: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centroids) != 1 {
		t.Errorf("K should clamp to len(data): got %d centroids", len(res.Centroids))
	}
	// K=0 clamps to 1.
	res, err = KMeans(one, Options{K: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centroids) != 1 {
		t.Errorf("K=0 should clamp to 1, got %d", len(res.Centroids))
	}
}

func TestKMeansDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data, _ := blobs(rng, 2, 30)
	a, err := KMeans(data, Options{K: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := KMeans(data, Options{K: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Centroids {
		if !a.Centroids[i].Equal(b.Centroids[i]) {
			t.Fatal("same seed produced different centroids")
		}
	}
}

func TestKMeansIdenticalPoints(t *testing.T) {
	same := make([]*vector.Sparse, 10)
	for i := range same {
		same[i] = vector.FromMap(map[int32]float64{0: 5})
	}
	res, err := KMeans(same, Options{K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inertia != 0 {
		t.Errorf("inertia = %v, want 0", res.Inertia)
	}
}

func TestNearest(t *testing.T) {
	cents := []*vector.Sparse{
		vector.FromMap(map[int32]float64{0: 0}),
		vector.FromMap(map[int32]float64{0: 10}),
	}
	x := vector.FromMap(map[int32]float64{0: 8})
	if got := Nearest(cents, x); got != 1 {
		t.Errorf("Nearest = %d, want 1", got)
	}
	if got := Nearest(nil, x); got != -1 {
		t.Errorf("Nearest(empty) = %d, want -1", got)
	}
}

func TestPropertyAssignmentIsNearestCentroid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		data, _ := blobs(rng, 2, 15)
		res, err := KMeans(data, Options{K: 2, Seed: seed})
		if err != nil {
			return false
		}
		// After convergence every point's assigned centroid must be (one
		// of) the nearest.
		for i, x := range data {
			got := x.EuclideanDistance(res.Centroids[res.Assignment[i]])
			for _, c := range res.Centroids {
				if x.EuclideanDistance(c) < got-1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestPropertyInertiaNonIncreasingInK(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	data, _ := blobs(rng, 3, 20)
	prev := -1.0
	for k := 1; k <= 4; k++ {
		res, err := KMeans(data, Options{K: k, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if prev >= 0 && res.Inertia > prev*1.05 {
			t.Errorf("inertia rose sharply from k=%d (%v) to k=%d (%v)", k-1, prev, k, res.Inertia)
		}
		prev = res.Inertia
	}
}
