package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct{ p, want float64 }{
		{50, 50}, {99, 100}, {90, 90}, {91, 100}, {10, 10}, {1, 10}, {100, 100},
	} {
		if got, ok := percentile(s, c.p); !ok || got != c.want {
			t.Errorf("percentile(%v) = %v, %v; want %v", c.p, got, ok, c.want)
		}
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("percentile of nothing reported ok")
	}
}

func TestTailSupported(t *testing.T) {
	// p99 of n samples has n - ceil(0.99 n) samples beyond it.
	for _, c := range []struct {
		n    int
		want bool
	}{{999, false}, {1000, true}, {1099, true}, {3000, true}, {100, false}} {
		if got := tailSupported(c.n, 99); got != c.want {
			t.Errorf("tailSupported(%d, 99) = %v, want %v", c.n, got, c.want)
		}
	}
}

// TestQuartilesMatchPython pins the rule to the values Python's
// statistics.quantiles(xs, n=4) prints for the same input.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{2, 4}, 1.5, 3, 4.5},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}
