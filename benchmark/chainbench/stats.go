package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0..100) of values by linear
// interpolation between closest ranks; NaN for an empty sample. The
// input is not modified.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo+1 == len(s) { // a single sample
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(values []float64) float64 { return percentile(values, 50) }

func mean(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// intervals returns the gaps, in seconds, between consecutive stamps
// for which keep(i) holds for both ends — the commit-rate estimator
// drops the gap around a short (pool-tail) block that way.
func intervals(stamps []time.Time, keep func(i int) bool) []float64 {
	var out []float64
	for i := 1; i < len(stamps); i++ {
		if keep(i-1) && keep(i) {
			out = append(out, stamps[i].Sub(stamps[i-1]).Seconds())
		}
	}
	return out
}

// fast is the estimator behind every timing the benchmark reports: the
// mean of the fastest tenth of the samples (the minimum, below twenty
// samples). On a shared host interference only ever adds time, and it
// comes and goes within a run, so the fastest units are the ones that
// measured the program and not its neighbours: across processes here
// the median of 100 units moved 11-25 %, their fastest decile 5-16 %.
func fast(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	k := len(s) / 10
	if k < 1 {
		k = 1
	}
	return mean(s[:k])
}

// windows returns the mean of every run of k consecutive values (of
// all of them, when there are fewer than k). Durable blocks reach the
// subscriber in bunches, so a single gap says little; k gaps in a row
// are the time k blocks took.
func windows(values []float64, k int) []float64 {
	if len(values) == 0 {
		return nil
	}
	if len(values) < k {
		k = len(values)
	}
	out := make([]float64, 0, len(values)-k+1)
	sum := 0.0
	for i, v := range values {
		sum += v
		if i >= k {
			sum -= values[i-k]
		}
		if i >= k-1 {
			out = append(out, sum/float64(k))
		}
	}
	return out
}
