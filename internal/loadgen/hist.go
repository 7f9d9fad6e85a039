package loadgen

import (
	"math"
	"time"
)

// Histogram is a log-bucketed latency histogram: bucket boundaries grow
// geometrically from histFloor, so it spans microseconds to minutes in
// a couple hundred counters with a bounded relative error per bucket
// (~7% at the configured growth). Quantiles come from a cumulative walk
// and report the geometric midpoint of the landing bucket.
//
// Not safe for concurrent use; the runner owns one per endpoint on its
// single collector goroutine.
type Histogram struct {
	counts []uint64
	total  uint64
	sum    time.Duration
	min    time.Duration
	max    time.Duration
}

const (
	histFloor  = 1000 // ns; everything faster lands in bucket 0
	histGrowth = 1.15 // per-bucket boundary ratio
)

func histBucket(d time.Duration) int {
	if d < histFloor {
		return 0
	}
	return 1 + int(math.Log(float64(d)/histFloor)/math.Log(histGrowth))
}

// histBound returns bucket i's lower boundary in nanoseconds.
func histBound(i int) float64 {
	if i <= 0 {
		return 0
	}
	return histFloor * math.Pow(histGrowth, float64(i-1))
}

// Record adds one observation.
func (h *Histogram) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	i := histBucket(d)
	if i >= len(h.counts) {
		grown := make([]uint64, i+1)
		copy(grown, h.counts)
		h.counts = grown
	}
	h.counts[i]++
	h.sum += d
	if h.total == 0 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	h.total++
}

// Mean reports the exact arithmetic mean of the observations (tracked
// outside the buckets, so it carries no bucketing error).
func (h *Histogram) Mean() time.Duration {
	if h.total == 0 {
		return 0
	}
	return h.sum / time.Duration(h.total)
}

// Max reports the largest observation.
func (h *Histogram) Max() time.Duration { return h.max }

// Quantile reports the q-quantile (q in [0,1]) as the geometric
// midpoint of the bucket holding the q·count-th observation, clamped to
// the exact observed min and max so the tails never over-report.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(h.total)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen < rank {
			continue
		}
		lo := histBound(i)
		hi := histBound(i + 1)
		if lo <= 0 {
			lo = 1
		}
		d := time.Duration(math.Sqrt(lo * hi))
		if d < h.min {
			d = h.min
		}
		if d > h.max {
			d = h.max
		}
		return d
	}
	return h.max
}

// Buckets returns the non-empty buckets as (lower bound, count) pairs,
// for report serialization.
func (h *Histogram) Buckets() []HistBucket {
	var out []HistBucket
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		out = append(out, HistBucket{LowNs: histBound(i), Count: c})
	}
	return out
}

// HistBucket is one non-empty histogram bucket.
type HistBucket struct {
	LowNs float64 `json:"low_ns"` // inclusive lower latency bound
	Count uint64  `json:"count"`
}
