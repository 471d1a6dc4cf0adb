package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie beyond a reported
// percentile: a tail figure resting on fewer is noise.
const minBeyond = 10

// tail is one reported percentile with the evidence behind it.
type tail struct {
	value   float64
	samples int // samples the percentile was taken over
	beyond  int // samples ranked above the percentile
}

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// samples. It fails unless at least minBeyond samples rank above it, so a
// reported tail always says how many observations it stands on.
func percentile(samples []float64, p float64) (tail, error) {
	n := len(samples)
	if n == 0 {
		return tail{}, fmt.Errorf("p%g of no samples", p)
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	t := tail{value: sorted[rank-1], samples: n, beyond: n - rank}
	if t.beyond < minBeyond {
		return t, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p, n, t.beyond, minBeyond)
	}
	return t, nil
}

// median returns the median of xs (the mean of the middle pair for an
// even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
