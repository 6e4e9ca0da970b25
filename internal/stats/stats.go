// Package stats provides the streaming statistics used by the simulator and
// the experiment harness: Welford mean/variance accumulators, Sketch (the
// one histogram type: mergeable quantiles within ~3.1% relative error, with
// a validated JSON codec) for latencies and observability probes, and
// multi-replication summaries with normal-approximation confidence
// intervals.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Welford is a numerically stable streaming accumulator for count, mean, and
// variance. The zero value is ready to use.
type Welford struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records one observation.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// AddN records the same observation value n times.
func (w *Welford) AddN(x float64, n int64) {
	for i := int64(0); i < n; i++ {
		w.Add(x)
	}
}

// Merge combines another accumulator into w (parallel Welford merge).
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n := w.n + o.n
	delta := o.mean - w.mean
	w.mean += delta * float64(o.n) / float64(n)
	w.m2 += o.m2 + delta*delta*float64(w.n)*float64(o.n)/float64(n)
	w.n = n
	if o.min < w.min {
		w.min = o.min
	}
	if o.max > w.max {
		w.max = o.max
	}
}

// Count returns the number of observations.
func (w *Welford) Count() int64 { return w.n }

// Mean returns the sample mean (0 for an empty accumulator).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance (0 for n < 2).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// PopVariance returns the population variance m2/n (0 for n < 1).
func (w *Welford) PopVariance() float64 {
	if w.n < 1 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// Min returns the smallest observation (0 when empty).
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest observation (0 when empty).
func (w *Welford) Max() float64 { return w.max }

// Sum returns mean * n.
func (w *Welford) Sum() float64 { return w.mean * float64(w.n) }

// String formats the accumulator for logs.
func (w *Welford) String() string {
	return fmt.Sprintf("n=%d mean=%.4f sd=%.4f min=%.4f max=%.4f",
		w.n, w.Mean(), w.StdDev(), w.min, w.max)
}

// Summary captures a set of per-replication values and reports their mean
// and a normal-approximation confidence interval across replications.
type Summary struct {
	values []float64
}

// AddRep records one replication's value.
func (s *Summary) AddRep(v float64) { s.values = append(s.values, v) }

// N returns the number of replications recorded.
func (s *Summary) N() int { return len(s.values) }

// Mean returns the across-replication mean.
func (s *Summary) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.values {
		sum += v
	}
	return sum / float64(len(s.values))
}

// HalfWidth95 returns the half-width of the 95% confidence interval using
// the normal approximation (1.96 * stderr). Zero for fewer than two reps.
func (s *Summary) HalfWidth95() float64 {
	n := len(s.values)
	if n < 2 {
		return 0
	}
	mean := s.Mean()
	ss := 0.0
	for _, v := range s.values {
		d := v - mean
		ss += d * d
	}
	return 1.96 * math.Sqrt(ss/float64(n-1)/float64(n))
}

// Median returns the middle replication value.
func (s *Summary) Median() float64 {
	n := len(s.values)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), s.values...)
	sort.Float64s(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// String formats the summary as "mean ± halfwidth (n=reps)".
func (s *Summary) String() string {
	return fmt.Sprintf("%.4f ± %.4f (n=%d)", s.Mean(), s.HalfWidth95(), s.N())
}
