package main

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestHistAgainstSortedSlice pins the histogram's quantiles to a
// sorted-slice reference within the advertised 1 % relative error, over
// values spanning nanoseconds to seconds.
func TestHistAgainstSortedSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h Hist
	vals := make([]int64, 20000)
	for i := range vals {
		vals[i] = int64(math.Exp(rng.Float64() * math.Log(5e9))) // log-uniform in [1, 5e9]
		h.Record(vals[i])
	}
	slices.Sort(vals)
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999} {
		rank := int(math.Ceil(q*float64(len(vals)))) - 1
		want := float64(vals[rank])
		got, used := h.Quantile(q)
		if used != q {
			t.Fatalf("p%g fell back to p%g with %d samples", q*100, used*100, len(vals))
		}
		if math.Abs(got-want) > 0.01*want {
			t.Errorf("p%g = %.0f, sorted reference %.0f: off by more than 1%%", q*100, got, want)
		}
	}
	if h.Count() != len(vals) || h.Max() != vals[len(vals)-1] {
		t.Errorf("count %d max %d, want %d and %d", h.Count(), h.Max(), len(vals), vals[len(vals)-1])
	}
	sum := 0.0
	for _, v := range vals {
		sum += float64(v)
	}
	if mean := sum / float64(len(vals)); math.Abs(h.Mean()-mean) > 1e-6*mean {
		t.Errorf("mean %.3f, want %.3f", h.Mean(), mean)
	}
}

// TestHistSmallValuesExact: values below the linear range are their own
// buckets, so counts such as batch sizes come back exactly.
func TestHistSmallValuesExact(t *testing.T) {
	var h Hist
	for v := int64(0); v < 2*histSubCount; v++ {
		h.Record(v)
	}
	for v := 0; v < 2*histSubCount; v++ {
		if histValue(histBucket(uint64(v))) != float64(v) {
			t.Fatalf("value %d reported as %v", v, histValue(histBucket(uint64(v))))
		}
	}
	h.Record(-5) // clamps to zero instead of indexing out of range
	h.Record(math.MaxInt64)
	if h.Max() != histMaxVal {
		t.Errorf("oversized value recorded as %d, want the clamp %d", h.Max(), int64(histMaxVal))
	}
}

// TestHistPercentileRule: a percentile with fewer than ten samples beyond
// it is refused in favour of the highest supported ladder level.
func TestHistPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n       int
		q, used float64
	}{
		{1000, 0.99, 0.99}, // exactly ten beyond
		{999, 0.99, 0.95},
		{100, 0.9, 0.9},
		{99, 0.9, 0.8},
		{50, 0.99, 0.8},
		{49, 0.99, 0.5},
		{5, 0.99, 0.5}, // the median is the floor, supported or not
		{20000, 0.999, 0.999},
	} {
		var h Hist
		for i := 1; i <= tc.n; i++ {
			h.Record(int64(i))
		}
		_, used := h.Quantile(tc.q)
		if used != tc.used {
			t.Errorf("n=%d p%g: reported p%g, want p%g", tc.n, tc.q*100, used*100, tc.used*100)
		}
	}
	var empty Hist
	if v, _ := empty.Quantile(0.99); v != 0 {
		t.Errorf("empty histogram reports %v", v)
	}
}

func TestHistMerge(t *testing.T) {
	var a, b, all Hist
	for i := int64(1); i <= 500; i++ {
		a.Record(i)
		b.Record(i * 1000)
		all.Record(i)
		all.Record(i * 1000)
	}
	a.Merge(&b)
	if a != all {
		t.Error("merged histogram differs from recording everything into one")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
	// statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
	q1, q2, q3 = quartiles([]float64{10, 20})
	if q1 != 7.5 || q2 != 15 || q3 != 22.5 {
		t.Errorf("quartiles %v %v %v, want 7.5 15 22.5", q1, q2, q3)
	}
}
