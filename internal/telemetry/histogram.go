package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// histBuckets is the fixed bucket count of every histogram: base-2
// exponential buckets, bucket i holding values whose bit length is i
// (i.e. [2^(i-1), 2^i-1]; bucket 0 holds exactly zero). 48 buckets cover
// nanosecond latencies up to ~1.6 days, so no observation is ever out of
// range in practice and the last bucket absorbs the rest.
const histBuckets = 48

// Histogram is a fixed-bucket distribution of non-negative int64
// observations — latencies in nanoseconds, sizes in bytes. Observe is
// allocation-free and lock-free; the nil histogram discards observations.
// Negative values are clamped to zero (durations can go negative on
// clock steps; they carry no information worth a panic).
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

func newHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	i := bits.Len64(uint64(v))
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.buckets[i].Add(1)
}

// Bucket is one non-empty histogram bucket: Count observations at most Le.
type Bucket struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// HistogramSnapshot is the JSON form of a histogram: totals, extremes,
// estimated quantiles and the non-empty buckets.
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	Min     int64    `json:"min"`
	Max     int64    `json:"max"`
	Mean    float64  `json:"mean"`
	P50     int64    `json:"p50"`
	P99     int64    `json:"p99"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot captures the histogram's current state. Quantiles are upper
// bounds of the bucket the rank falls in — coarse (a factor of two) but
// monotone and allocation-free to maintain. Concurrent Observe calls may
// leave count/sum momentarily inconsistent by one observation; snapshots
// of a quiesced histogram are exact.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	var s HistogramSnapshot
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	if s.Count == 0 {
		return s
	}
	s.Min = h.min.Load()
	s.Max = h.max.Load()
	s.Mean = float64(s.Sum) / float64(s.Count)

	var counts [histBuckets]int64
	total := int64(0)
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	s.P50 = h.quantile(&counts, total, 0.50)
	s.P99 = h.quantile(&counts, total, 0.99)
	for i, c := range counts {
		if c > 0 {
			s.Buckets = append(s.Buckets, Bucket{Le: bucketLe(i), Count: c})
		}
	}
	return s
}

// bucketLe returns the inclusive upper bound of bucket i. The last bucket
// absorbs every out-of-range observation, so it is open-ended.
func bucketLe(i int) int64 {
	if i == 0 {
		return 0
	}
	if i >= histBuckets-1 {
		return math.MaxInt64
	}
	return int64(1)<<i - 1
}

func (h *Histogram) quantile(counts *[histBuckets]int64, total int64, q float64) int64 {
	if total == 0 {
		return 0
	}
	// Nearest-rank: the smallest value with at least ceil(q*total)
	// observations at or below it.
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	seen := int64(0)
	for i, c := range counts {
		seen += c
		if seen >= rank {
			le := bucketLe(i)
			if mx := h.max.Load(); le > mx {
				le = mx
			}
			return le
		}
	}
	return h.max.Load()
}
