package bench

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMeanAndStdDev(t *testing.T) {
	var s Sample
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if !almostEqual(s.Mean(), 5) {
		t.Fatalf("mean = %f", s.Mean())
	}
	// Sample stddev with n-1 denominator: sqrt(32/7).
	if !almostEqual(s.StdDev(), math.Sqrt(32.0/7.0)) {
		t.Fatalf("stddev = %f", s.StdDev())
	}
	if s.N() != 8 {
		t.Fatalf("n = %d", s.N())
	}
}

func TestEmptySample(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.StdDev() != 0 || s.N() != 0 {
		t.Fatal("empty sample should report zeros")
	}
}

func TestSingleValueSample(t *testing.T) {
	var s Sample
	s.Add(42)
	if s.Mean() != 42 || s.StdDev() != 0 {
		t.Fatalf("single-value sample: mean=%f stddev=%f", s.Mean(), s.StdDev())
	}
}

func TestSummaryFormat(t *testing.T) {
	var s Sample
	s.Add(1)
	s.Add(3)
	if got := s.Summary(1); got != "2.0 ± 1.4" {
		t.Fatalf("summary = %q", got)
	}
}

func TestArithMean(t *testing.T) {
	if !almostEqual(ArithMean([]float64{1, 2, 3}), 2) {
		t.Fatal("arith mean broken")
	}
	if ArithMean(nil) != 0 {
		t.Fatal("arith mean of empty should be 0")
	}
}

// Property: mean is within [min, max] and stddev is non-negative.
func TestSampleInvariants(t *testing.T) {
	prop := func(vals []float64) bool {
		var s Sample
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			// Scale into a sane range to avoid float overflow artifacts.
			v = math.Mod(v, 1e9)
			s.Add(v)
			lo, hi = min(lo, v), max(hi, v)
		}
		if s.N() == 0 {
			return true
		}
		return s.Mean() >= lo-1e-6 && s.Mean() <= hi+1e-6 && s.StdDev() >= 0
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
