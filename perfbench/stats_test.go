package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	for _, c := range []struct {
		n          int
		q          float64
		want       float64
		wantBeyond int
	}{
		{1, 0.5, 1, 0},
		{1, 0.99, 1, 0},
		{2, 0.5, 1, 1},
		{4, 0.25, 1, 3},
		{4, 0.75, 3, 1},
		{10, 0.5, 5, 5},
		{1000, 0.99, 990, 10}, // q·n is an exact integer: no rounding up
		{1000, 0.5, 500, 500},
		{1001, 0.99, 991, 10},
		{100, 1, 100, 0},
	} {
		got := Percentile(seq(c.n), c.q)
		if got.Value != c.want || got.Beyond != c.wantBeyond || got.N != c.n {
			t.Errorf("Percentile(1..%d, %g) = %+v, want value %g beyond %d", c.n, c.q, got, c.want, c.wantBeyond)
		}
	}
	if got := Percentile(nil, 0.5); got.N != 0 || got.Value != 0 {
		t.Errorf("Percentile(nil) = %+v, want zero", got)
	}
}

func TestTailKeepsTenBeyond(t *testing.T) {
	// 1000 samples: p99 has exactly ten beyond it and stands.
	s, ok := Tail(seq(1000), 0.99)
	if !ok || s.Value != 990 || s.Beyond != 10 || s.Q != 0.99 {
		t.Fatalf("Tail(1..1000, .99) = %+v ok=%t", s, ok)
	}
	// 999 samples: p99 would leave nine beyond, so the tail falls back to
	// the highest quantile with ten beyond, rank 989.
	s, ok = Tail(seq(999), 0.99)
	if ok || s.Value != 989 || s.Beyond != 10 || s.Q != 989.0/999 {
		t.Fatalf("Tail(1..999, .99) = %+v ok=%t", s, ok)
	}
	// Eleven samples: the lowest rank that still has ten beyond.
	s, ok = Tail(seq(11), 0.99)
	if ok || s.Value != 1 || s.Beyond != 10 {
		t.Fatalf("Tail(1..11, .99) = %+v ok=%t", s, ok)
	}
	// Ten or fewer samples: no tail exists at all.
	for _, n := range []int{0, 1, 10} {
		if s, ok := Tail(seq(n), 0.99); ok || s.Value != 0 || s.N != n {
			t.Fatalf("Tail(1..%d, .99) = %+v ok=%t, want no tail", n, s, ok)
		}
	}
	// A median always has ten beyond once n >= 21.
	if s, ok := Tail(seq(21), 0.5); !ok || s.Value != 11 || s.Beyond != 10 {
		t.Fatalf("Tail(1..21, .5) = %+v ok=%t", s, ok)
	}
}

func TestMedianIgnoresOrder(t *testing.T) {
	if got := median([]float64{5, 1, 4, 2, 3}); got != 3 {
		t.Fatalf("median = %g, want 3", got)
	}
}
