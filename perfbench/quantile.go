package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples a percentile needs above its rank to
// count as measured rather than as a guess at the tail.
const minBeyond = 10

// samples is a set of measured durations in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d)/1e6) }

// rank returns the 1-based nearest rank of quantile q in n samples: the
// smallest rank r with r/n ≥ q. A flooring index such as int(q*(n-1))
// reads one sample low whenever q*(n-1) is fractional.
func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// quantile returns the nearest-rank q-quantile of s and whether at least
// minBeyond samples lie beyond it. An empty set yields (0, false).
func (s samples) quantile(q float64) (float64, bool) {
	if len(s) == 0 {
		return 0, false
	}
	sorted := append(samples(nil), s...)
	sort.Float64s(sorted)
	r := rank(len(sorted), q)
	return sorted[r-1], len(sorted)-r >= minBeyond
}

// tail is the nearest-rank q-quantile, valid or not.
func (s samples) tail(q float64) float64 {
	v, _ := s.quantile(q)
	return v
}

// mean is the arithmetic mean (0 for no samples).
func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// median is the nearest-rank median; for an odd count it is the middle
// sample.
func (s samples) median() float64 {
	v, _ := s.quantile(0.5)
	return v
}
