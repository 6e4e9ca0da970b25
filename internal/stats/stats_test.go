package stats

import (
	"math"
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if w.Count() != 0 || w.Mean() != 0 || w.Variance() != 0 || w.StdDev() != 0 {
		t.Error("empty Welford should be all zeros")
	}
	if w.Min() != 0 || w.Max() != 0 || w.Sum() != 0 {
		t.Error("empty Welford min/max/sum should be zero")
	}
}

func TestWelfordKnownValues(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.Count() != 8 {
		t.Errorf("count = %d", w.Count())
	}
	if !almost(w.Mean(), 5, 1e-12) {
		t.Errorf("mean = %g, want 5", w.Mean())
	}
	if !almost(w.PopVariance(), 4, 1e-12) {
		t.Errorf("pop variance = %g, want 4", w.PopVariance())
	}
	if !almost(w.Variance(), 32.0/7, 1e-12) {
		t.Errorf("sample variance = %g, want %g", w.Variance(), 32.0/7)
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Errorf("min/max = %g/%g", w.Min(), w.Max())
	}
	if !almost(w.Sum(), 40, 1e-9) {
		t.Errorf("sum = %g", w.Sum())
	}
}

func TestWelfordSingle(t *testing.T) {
	var w Welford
	w.Add(3.5)
	if w.Variance() != 0 || w.Mean() != 3.5 || w.Min() != 3.5 || w.Max() != 3.5 {
		t.Error("single-observation stats wrong")
	}
}

func TestWelfordAddN(t *testing.T) {
	var w Welford
	w.AddN(2, 3)
	w.AddN(4, 1)
	if w.Count() != 4 || !almost(w.Mean(), 2.5, 1e-12) {
		t.Errorf("AddN: n=%d mean=%g", w.Count(), w.Mean())
	}
}

func TestWelfordMerge(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	var all, a, b Welford
	for i := 0; i < 1000; i++ {
		x := rng.NormFloat64()*3 + 10
		all.Add(x)
		if i%2 == 0 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(b)
	if a.Count() != all.Count() {
		t.Fatalf("merged count %d != %d", a.Count(), all.Count())
	}
	if !almost(a.Mean(), all.Mean(), 1e-9) {
		t.Errorf("merged mean %g != %g", a.Mean(), all.Mean())
	}
	if !almost(a.Variance(), all.Variance(), 1e-9) {
		t.Errorf("merged variance %g != %g", a.Variance(), all.Variance())
	}
	if a.Min() != all.Min() || a.Max() != all.Max() {
		t.Error("merged min/max wrong")
	}
}

func TestWelfordMergeEmptyCases(t *testing.T) {
	var a, b Welford
	a.Merge(b) // empty into empty
	if a.Count() != 0 {
		t.Error("empty merge should stay empty")
	}
	b.Add(5)
	a.Merge(b) // non-empty into empty
	if a.Count() != 1 || a.Mean() != 5 {
		t.Error("merge into empty failed")
	}
	var c Welford
	a.Merge(c) // empty into non-empty
	if a.Count() != 1 {
		t.Error("merging empty should be a no-op")
	}
}

func TestWelfordString(t *testing.T) {
	var w Welford
	w.Add(1)
	if !strings.Contains(w.String(), "n=1") {
		t.Errorf("String = %q", w.String())
	}
}

func TestQuickWelfordMatchesDirect(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e6 {
				clean = append(clean, x)
			}
		}
		if len(clean) < 2 {
			return true
		}
		var w Welford
		sum := 0.0
		for _, x := range clean {
			w.Add(x)
			sum += x
		}
		mean := sum / float64(len(clean))
		ss := 0.0
		for _, x := range clean {
			ss += (x - mean) * (x - mean)
		}
		wantVar := ss / float64(len(clean)-1)
		return almost(w.Mean(), mean, 1e-6*(1+math.Abs(mean))) &&
			almost(w.Variance(), wantVar, 1e-5*(1+wantVar))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSummary(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.HalfWidth95() != 0 || s.Median() != 0 || s.N() != 0 {
		t.Error("empty summary should be zeros")
	}
	for _, v := range []float64{10, 12, 11, 13, 9} {
		s.AddRep(v)
	}
	if s.N() != 5 {
		t.Errorf("N = %d", s.N())
	}
	if !almost(s.Mean(), 11, 1e-12) {
		t.Errorf("mean = %g", s.Mean())
	}
	if s.Median() != 11 {
		t.Errorf("median = %g", s.Median())
	}
	// stddev = sqrt(10/4) = 1.5811; stderr = 0.7071; hw = 1.386.
	if !almost(s.HalfWidth95(), 1.96*math.Sqrt(2.5/5), 1e-9) {
		t.Errorf("half width = %g", s.HalfWidth95())
	}
	if !strings.Contains(s.String(), "n=5") {
		t.Errorf("String = %q", s.String())
	}
}

func TestSummaryEvenMedian(t *testing.T) {
	var s Summary
	s.AddRep(1)
	s.AddRep(3)
	if s.Median() != 2 {
		t.Errorf("even median = %g, want 2", s.Median())
	}
	if s.HalfWidth95() == 0 {
		t.Error("two reps should produce a nonzero interval")
	}
}

func TestSummarySingleRep(t *testing.T) {
	var s Summary
	s.AddRep(7)
	if s.HalfWidth95() != 0 {
		t.Error("single rep has no interval")
	}
	if s.Median() != 7 {
		t.Error("single-rep median")
	}
}

func TestPopVarianceEmpty(t *testing.T) {
	var w Welford
	if w.PopVariance() != 0 {
		t.Error("empty PopVariance should be 0")
	}
	w.Add(4)
	if w.PopVariance() != 0 {
		t.Error("single-observation PopVariance should be 0")
	}
}
