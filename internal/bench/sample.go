package bench

import (
	"fmt"
	"math"
)

// Sample is a collection of measurements: the paper's protocol takes
// the mean and standard deviation of repeated runs.
type Sample struct {
	values []float64
}

// Add appends a measurement.
func (s *Sample) Add(v float64) { s.values = append(s.values, v) }

// N returns the number of measurements.
func (s *Sample) N() int { return len(s.values) }

// Mean returns the arithmetic mean (0 for an empty sample).
func (s *Sample) Mean() float64 { return ArithMean(s.values) }

// StdDev returns the sample standard deviation (n-1 denominator; 0 when
// fewer than two measurements exist).
func (s *Sample) StdDev() float64 {
	n := len(s.values)
	if n < 2 {
		return 0
	}
	mean := s.Mean()
	sum := 0.0
	for _, v := range s.values {
		d := v - mean
		sum += d * d
	}
	return math.Sqrt(sum / float64(n-1))
}

// Summary renders "mean ± stddev" with the given precision.
func (s *Sample) Summary(prec int) string {
	return fmt.Sprintf("%.*f ± %.*f", prec, s.Mean(), prec, s.StdDev())
}

// ArithMean returns the arithmetic mean of a plain slice (0 for an empty
// one). The paper's Table 1 averages speedups arithmetically.
func ArithMean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}
