package stats

// Sketch is an HDR-style streaming quantile sketch, the module's one
// histogram type: the load harness records per-endpoint client latencies
// in it, the daemon's /metrics histograms are sketches, and the occupancy
// probe samples queue backlog and depth into it. Values below 64 land in
// exact linear buckets; above that each power-of-two octave is split into
// 32 sub-buckets, bounding the relative quantile error at 1/32 (~3.1%)
// across the full int64 range. Add is a few integer operations and
// allocation-free after the first observation, so a fleet of hundreds of
// clients can record every request; per-worker sketches merge exactly
// (bucket-wise) at the end of a run.
//
// The JSON form is versioned and validated on decode: BENCH_serve.json
// embeds sketches so future tooling can recompute any quantile from a
// committed trajectory, /metrics bodies carry them between processes, and
// a corrupt or truncated document must fail cleanly (see FuzzSketchDecode).

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"time"
)

const (
	sketchLinearMax = 64 // values < 64 are exact
	sketchSubBits   = 5  // 32 sub-buckets per octave above that
	// sketchBuckets covers every nonnegative int64: 64 linear buckets plus
	// 32 sub-buckets for each of the 58 octaves [2^6, 2^63].
	sketchBuckets = sketchLinearMax + (63-sketchSubBits)*(1<<sketchSubBits)
	// sketchVersion is the JSON codec version; decoding rejects others.
	sketchVersion = 1
)

// Sketch accumulates nonnegative int64 observations. The zero value is
// ready to use; negative observations are clamped to zero.
type Sketch struct {
	counts []int64 // nil until the first Add; always sketchBuckets long after
	count  int64
	sum    int64
	min    int64
	max    int64
}

// sketchIndex maps a value to its bucket.
func sketchIndex(v int64) int {
	if v < sketchLinearMax {
		return int(v)
	}
	// v >= 64 has bit length >= 7; exp counts octaves above [64, 128).
	exp := bits.Len64(uint64(v)) - 7
	sub := int(uint64(v)>>(exp+1)) - (1 << sketchSubBits)
	return sketchLinearMax + exp<<sketchSubBits + sub
}

// sketchUpper returns the largest value bucket idx can hold.
func sketchUpper(idx int) int64 {
	if idx < sketchLinearMax {
		return int64(idx)
	}
	exp := (idx - sketchLinearMax) >> sketchSubBits
	sub := (idx - sketchLinearMax) & (1<<sketchSubBits - 1)
	hi := (int64(1<<sketchSubBits+sub+1) << (exp + 1)) - 1
	if hi < 0 { // the top octave saturates int64
		return math.MaxInt64
	}
	return hi
}

// Add records one observation.
func (s *Sketch) Add(v int64) {
	if v < 0 {
		v = 0
	}
	if s.counts == nil {
		s.counts = make([]int64, sketchBuckets)
	}
	if s.count == 0 || v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
	s.count++
	s.sum += v
	s.counts[sketchIndex(v)]++
}

// AddDuration records a duration in microseconds, the harness's unit.
func (s *Sketch) AddDuration(d time.Duration) { s.Add(d.Microseconds()) }

// Count returns the number of observations.
func (s *Sketch) Count() int64 { return s.count }

// Mean returns the exact mean (0 when empty).
func (s *Sketch) Mean() float64 {
	if s.count == 0 {
		return 0
	}
	return float64(s.sum) / float64(s.count)
}

// Min returns the smallest observation (0 when empty).
func (s *Sketch) Min() int64 { return s.min }

// Max returns the largest observation (0 when empty).
func (s *Sketch) Max() int64 { return s.max }

// Quantile returns an upper bound for the q-quantile (0 <= q <= 1),
// accurate to one sub-bucket (exact below 64, within ~3.1% above).
func (s *Sketch) Quantile(q float64) int64 {
	if s.count == 0 {
		return 0
	}
	q = math.Min(math.Max(q, 0), 1)
	target := int64(math.Ceil(q * float64(s.count)))
	if target < 1 {
		target = 1
	}
	seen := int64(0)
	for i, c := range s.counts {
		if c == 0 {
			continue
		}
		seen += c
		if seen >= target {
			u := sketchUpper(i)
			if u > s.max {
				u = s.max // never report past the true maximum
			}
			return u
		}
	}
	return s.max
}

// Merge folds o into s bucket-wise. Merging then querying is identical to
// having recorded every observation into one sketch.
func (s *Sketch) Merge(o *Sketch) {
	if o == nil || o.count == 0 {
		return
	}
	if s.counts == nil {
		s.counts = make([]int64, sketchBuckets)
	}
	for i, c := range o.counts {
		s.counts[i] += c
	}
	if s.count == 0 || o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	s.count += o.count
	s.sum += o.sum
}

// sketchJSON is the compact wire form: occupied buckets as [index, count]
// pairs in ascending index order.
type sketchJSON struct {
	V       int        `json:"v"`
	Count   int64      `json:"count"`
	Sum     int64      `json:"sum"`
	Min     int64      `json:"min"`
	Max     int64      `json:"max"`
	Buckets [][2]int64 `json:"buckets,omitempty"`
}

// MarshalJSON implements json.Marshaler.
func (s *Sketch) MarshalJSON() ([]byte, error) {
	out := sketchJSON{V: sketchVersion, Count: s.count, Sum: s.sum, Min: s.min, Max: s.max}
	for i, c := range s.counts {
		if c != 0 {
			out.Buckets = append(out.Buckets, [2]int64{int64(i), c})
		}
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler with full validation: version,
// bucket ordering and range, count consistency, and min/max sanity. A
// sketch from a corrupt or hand-doctored trajectory decodes to an error,
// never to a panic or a silently wrong distribution.
func (s *Sketch) UnmarshalJSON(data []byte) error {
	var in sketchJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("stats: decoding sketch: %w", err)
	}
	if in.V != sketchVersion {
		return fmt.Errorf("stats: unsupported sketch version %d (want %d)", in.V, sketchVersion)
	}
	if in.Count < 0 {
		return fmt.Errorf("stats: sketch count %d is negative", in.Count)
	}
	if in.Count == 0 {
		if len(in.Buckets) != 0 {
			return fmt.Errorf("stats: empty sketch carries %d buckets", len(in.Buckets))
		}
		*s = Sketch{}
		return nil
	}
	if in.Min < 0 || in.Max < in.Min {
		return fmt.Errorf("stats: sketch range [%d, %d] is invalid", in.Min, in.Max)
	}
	counts := make([]int64, sketchBuckets)
	total := int64(0)
	prev := int64(-1)
	for _, b := range in.Buckets {
		idx, c := b[0], b[1]
		if idx <= prev || idx >= sketchBuckets {
			return fmt.Errorf("stats: sketch bucket index %d out of order or range", idx)
		}
		if c <= 0 || c > in.Count {
			return fmt.Errorf("stats: sketch bucket %d has impossible count %d", idx, c)
		}
		counts[idx] = c
		total += c
		prev = idx
	}
	if total != in.Count {
		return fmt.Errorf("stats: sketch buckets sum to %d, header says %d", total, in.Count)
	}
	*s = Sketch{counts: counts, count: in.Count, sum: in.Sum, min: in.Min, max: in.Max}
	return nil
}
