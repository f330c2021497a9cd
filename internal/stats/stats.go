// Package stats provides the small statistical toolkit used across the
// ProFess simulator: running counters, exponential smoothing (as used by the
// Relative-Slowdown Monitor), summary statistics, and the box-plot summaries
// that the paper uses to present single-program results (Fig. 5).
//
// A product added to something is wrapped in float64(...): the conversion
// rounds it, which stops arm64 from fusing the multiply-add, so results are
// the same on every GOARCH (`make fma-check`).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// GeoMean returns the geometric mean of xs. An empty slice and non-positive
// entries are rejected by returning NaN, since a geometric mean is undefined
// for them — callers that want a sentinel must check, not read a silent 0
// that looks like a catastrophic slowdown.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += float64(d * d)
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// Min returns the smallest element of xs, or 0 for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. xs need not be sorted.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := float64(p / 100 * float64(len(s)-1))
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return float64(s[lo]*(1-frac)) + float64(s[hi]*frac)
}

// Smoother implements simple exponential smoothing, avg += alpha*(x - avg),
// exactly as RSM applies it to its counters (the paper uses alpha = 0.125).
// The zero value is unprimed: the first observation becomes the average.
type Smoother struct {
	Alpha  float64
	avg    float64
	primed bool
}

// NewSmoother returns a Smoother with the given smoothing parameter.
func NewSmoother(alpha float64) *Smoother {
	return &Smoother{Alpha: alpha}
}

// Add feeds an observation and returns the updated average.
func (s *Smoother) Add(x float64) float64 {
	if !s.primed {
		s.avg = x
		s.primed = true
		return s.avg
	}
	s.avg += float64(s.Alpha * (x - s.avg))
	return s.avg
}

// Value returns the current smoothed average (0 if nothing was added).
func (s *Smoother) Value() float64 { return s.avg }

// Primed reports whether at least one observation has been added.
func (s *Smoother) Primed() bool { return s.primed }

// Reset clears the smoother to its unprimed state.
func (s *Smoother) Reset() { s.avg, s.primed = 0, false }

// BoxPlot is the five-number summary (plus outliers and geometric mean) used
// by the paper's Fig. 5 presentation: the box spans the first and third
// quartiles, whiskers cover the data range within 1.5 IQR, "+" markers are
// outliers, the red line is the median and the red dot the geometric mean.
type BoxPlot struct {
	Q1, Median, Q3      float64
	WhiskLow, WhiskHigh float64
	Outliers            []float64
	GeoMean             float64
	N                   int
}

// NewBoxPlot computes the box-plot summary of xs (Tukey's convention).
func NewBoxPlot(xs []float64) BoxPlot {
	bp := BoxPlot{N: len(xs)}
	if len(xs) == 0 {
		return bp
	}
	bp.Q1 = Percentile(xs, 25)
	bp.Median = Percentile(xs, 50)
	bp.Q3 = Percentile(xs, 75)
	bp.GeoMean = GeoMean(xs)
	iqr := bp.Q3 - bp.Q1
	loFence := bp.Q1 - float64(1.5*iqr)
	hiFence := bp.Q3 + float64(1.5*iqr)
	bp.WhiskLow = math.Inf(1)
	bp.WhiskHigh = math.Inf(-1)
	for _, x := range xs {
		if x < loFence || x > hiFence {
			bp.Outliers = append(bp.Outliers, x)
			continue
		}
		if x < bp.WhiskLow {
			bp.WhiskLow = x
		}
		if x > bp.WhiskHigh {
			bp.WhiskHigh = x
		}
	}
	if math.IsInf(bp.WhiskLow, 1) { // all points were outliers
		bp.WhiskLow, bp.WhiskHigh = bp.Median, bp.Median
	}
	sort.Float64s(bp.Outliers)
	return bp
}

// String renders the summary on one line.
func (bp BoxPlot) String() string {
	return fmt.Sprintf("n=%d whisk=[%.3f,%.3f] box=[%.3f,%.3f] med=%.3f gmean=%.3f outliers=%d",
		bp.N, bp.WhiskLow, bp.WhiskHigh, bp.Q1, bp.Q3, bp.Median, bp.GeoMean, len(bp.Outliers))
}

// Histogram is a fixed-bucket integer histogram.
type Histogram struct {
	Buckets []int64
	Width   float64
	Lo      float64
	Over    int64 // observations above the last bucket
	Under   int64 // observations below Lo
	Count   int64
	Sum     float64
}

// NewHistogram creates a histogram with n buckets of the given width
// starting at lo.
func NewHistogram(n int, lo, width float64) *Histogram {
	return &Histogram{Buckets: make([]int64, n), Width: width, Lo: lo}
}

// Reset zeroes every bucket and counter, returning the histogram to its
// just-built state without reallocating the bucket array.
func (h *Histogram) Reset() {
	clear(h.Buckets)
	h.Over, h.Under, h.Count = 0, 0, 0
	h.Sum = 0
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	h.Count++
	h.Sum += x
	if x < h.Lo {
		h.Under++
		return
	}
	i := int((x - h.Lo) / h.Width)
	if i >= len(h.Buckets) {
		h.Over++
		return
	}
	h.Buckets[i]++
}

// Mean returns the mean of all added observations.
func (h *Histogram) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Quantile returns an approximate q-quantile (0 < q <= 1): the midpoint of
// the bucket containing the q-th observation. Under/overflow observations
// map to the histogram's bounds.
func (h *Histogram) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	target := int64(q * float64(h.Count))
	if target < 1 {
		target = 1
	}
	seen := h.Under
	if seen >= target {
		return h.Lo
	}
	for i, n := range h.Buckets {
		seen += n
		if seen >= target {
			return h.Lo + float64((float64(i)+0.5)*h.Width)
		}
	}
	return h.Lo + float64(float64(len(h.Buckets))*h.Width) // overflow bound
}
