package main

import (
	"sort"
	"time"
)

// timing summarises one set of durations the way every timing in the
// result is reported: the median, the highest percentile that still has
// at least ten samples beyond it, and the sample count.
type timing struct {
	N        int     `json:"n"`
	MedianMS float64 `json:"median_ms"`
	// Tail is the percentile TailMS was read at: 99.9, 99, 95, 90 or,
	// when even p90 has fewer than ten samples beyond it, 50.
	Tail   float64 `json:"tail_percentile"`
	TailMS float64 `json:"tail_ms"`
}

// tailCandidates are tried highest first. They are per-mille so the
// count of samples beyond one is exact integer arithmetic.
var tailCandidates = []int{999, 990, 950, 900}

// minBeyond is how many samples must lie beyond a percentile for it to
// be reported (choosing-metrics guide, section 1).
const minBeyond = 10

// tailPercentile picks the reported tail for n samples, never above cap.
func tailPercentile(n int, cap float64) float64 {
	for _, pm := range tailCandidates {
		if p := float64(pm) / 10; p <= cap && n*(1000-pm) >= minBeyond*1000 {
			return p
		}
	}
	return 50
}

// percentile returns the nearest-rank p-th percentile of sorted.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(float64(len(sorted))*p/100+0.999999) - 1 // ceil(n·p/100) − 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// summarize sorts ds in place and reports it; the tail is capped at cap
// (99 for the gated p99 metric, 99.9 elsewhere).
func summarize(ds []time.Duration, cap float64) timing {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	t := timing{N: len(ds), Tail: tailPercentile(len(ds), cap)}
	t.MedianMS = ms(percentile(ds, 50))
	t.TailMS = ms(percentile(ds, t.Tail))
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quartiles returns Q1, the median and Q3 by the exclusive method, the
// one Python's statistics.quantiles(values, n=4) uses, so the spreads
// this harness prints are the ones the acceptance runs compute.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 { // k-th of 4 cut points
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// median is the middle one of quartiles.
func median(vs []float64) float64 {
	_, q2, _ := quartiles(vs)
	return q2
}
