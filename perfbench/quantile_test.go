package main

import (
	"testing"
	"time"
)

func TestRankIsNearestRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want int
	}{
		{10, 0.5, 5},
		{11, 0.5, 6},
		{10, 0.95, 10}, // a flooring int(q*(n-1)) index reads the 9th
		{100, 0.99, 99},
		{1000, 0.99, 990},
		{1, 0.99, 1},
		{3, 0, 1},
	} {
		if got := rank(c.n, c.q); got != c.want {
			t.Errorf("rank(%d, %v) = %d, want %d", c.n, c.q, got, c.want)
		}
	}
}

func seq(n int) samples {
	s := make(samples, n)
	for i := range s {
		s[i] = float64(n - i) // descending: quantile must sort
	}
	return s
}

func TestQuantileValidNeedsTenBeyond(t *testing.T) {
	if v, ok := seq(1000).quantile(0.99); v != 990 || !ok {
		t.Errorf("p99 of 1..1000 = %v valid=%v, want 990 valid", v, ok)
	}
	if v, ok := seq(100).quantile(0.99); v != 99 || ok {
		t.Errorf("p99 of 1..100 = %v valid=%v, want 99 not valid", v, ok)
	}
	if v, ok := seq(20).quantile(0.5); v != 10 || !ok {
		t.Errorf("p50 of 1..20 = %v valid=%v, want 10 valid", v, ok)
	}
	if _, ok := (samples{}).quantile(0.5); ok {
		t.Error("quantile of no samples is valid")
	}
}

func TestMedianMeanAndTail(t *testing.T) {
	var s samples
	for _, ms := range []int{30, 10, 20, 60} {
		s.add(time.Duration(ms) * time.Millisecond)
	}
	if got := s.median(); got != 20 {
		t.Errorf("median = %v, want 20 (nearest rank, the lower middle)", got)
	}
	if got := s.mean(); got != 30 {
		t.Errorf("mean = %v, want 30", got)
	}
	if got := s.tail(0.99); got != 60 {
		t.Errorf("p99 of four = %v, want the largest", got)
	}
	if got := (samples{}).mean(); got != 0 {
		t.Errorf("mean of none = %v", got)
	}
}
