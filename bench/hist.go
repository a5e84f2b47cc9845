package main

import "math/bits"

// Hist is the one latency histogram every workload and layer probe shares:
// log-linear buckets (128 linear sub-buckets per power of two, so a
// reported value is within 0.4 % of a recorded one), fixed storage, and a
// Record that never allocates. Values are non-negative int64s — the
// callers record nanoseconds or plain counts such as batch sizes. A Hist
// is not safe for concurrent use: concurrent recorders each write their
// own preallocated slot and the owner folds the slots in afterwards.
type Hist struct {
	counts [histBuckets]uint64
	n      uint64
	sum    uint64
	max    int64
}

const (
	histSubBits  = 7
	histSubCount = 1 << histSubBits
	// histMaxExp caps recordable values at 2^(histMaxExp+histSubBits+1)-1
	// (about 18 minutes in nanoseconds); larger values clamp to the top
	// bucket, far beyond any timeout the workloads apply.
	histMaxExp  = 32
	histBuckets = (histMaxExp + 2) * histSubCount
	histMaxVal  = 1<<(histMaxExp+histSubBits+1) - 1
)

// histBucket maps a value to its bucket index: values below histSubCount
// are exact, above that the top histSubBits+1 significant bits select the
// bucket.
func histBucket(v uint64) int {
	if v < histSubCount {
		return int(v)
	}
	e := bits.Len64(v) - histSubBits - 1
	return e*histSubCount + int(v>>uint(e))
}

// histValue is the midpoint of bucket i, the value Quantile reports.
func histValue(i int) float64 {
	if i < 2*histSubCount {
		return float64(i)
	}
	e := uint(i/histSubCount - 1)
	low := uint64(i%histSubCount+histSubCount) << e
	return float64(low) + float64(uint64(1)<<e-1)/2
}

// Record adds one observation; negative values count as zero.
func (h *Hist) Record(v int64) {
	if v < 0 {
		v = 0
	}
	if v > histMaxVal {
		v = histMaxVal
	}
	h.counts[histBucket(uint64(v))]++
	h.n++
	h.sum += uint64(v)
	if v > h.max {
		h.max = v
	}
}

// Count is the number of recorded observations.
func (h *Hist) Count() int { return int(h.n) }

// Mean is the exact arithmetic mean of the recorded values (0 when empty).
func (h *Hist) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Max is the largest recorded value, exact.
func (h *Hist) Max() int64 { return h.max }

// tailLadder is the fixed set of percentiles a tail metric may fall back
// through; fixed so that a fallback changes the reported level in visible
// steps instead of drifting with the sample count.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.9, 0.8, 0.5}

// minBeyond is the percentile rule: a percentile is reported only when at
// least this many samples lie beyond it.
const minBeyond = 10

// Supported reports whether at least minBeyond samples lie beyond q.
func (h *Hist) Supported(q float64) bool {
	// The epsilon absorbs 1-q not being exact in binary (100*(1-0.9) is
	// 9.999...).
	return float64(h.n)*(1-q) >= minBeyond-1e-9
}

// Quantile returns the q-quantile, refusing a level the sample cannot
// support: when fewer than minBeyond samples lie beyond q it falls back to
// the highest supported level of tailLadder below q (the median at worst)
// and returns the level it actually used.
func (h *Hist) Quantile(q float64) (value, used float64) {
	used = q
	if !h.Supported(q) {
		used = tailLadder[len(tailLadder)-1]
		for _, l := range tailLadder {
			if l < q && h.Supported(l) {
				used = l
				break
			}
		}
	}
	return h.quantile(used), used
}

// quantile is the unguarded nearest-rank quantile over the buckets.
func (h *Hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n))
	if float64(rank) < q*float64(h.n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			return histValue(i)
		}
	}
	return float64(h.max)
}

// P50 is the median; it needs no support check beyond a non-empty sample
// because it is the ladder's floor.
func (h *Hist) P50() float64 { return h.quantile(0.5) }

// Merge folds o's observations into h.
func (h *Hist) Merge(o *Hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}
