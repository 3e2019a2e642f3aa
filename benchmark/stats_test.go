package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		// Scrambled order: the helpers must not assume sorted input.
		xs[i] = float64((i*7)%n + 1)
	}
	return xs
}

func TestMinMedianPercentile(t *testing.T) {
	if got := minOf(nil); got != 0 {
		t.Errorf("minOf(nil) = %v, want 0", got)
	}
	xs := seq(11) // 1..11
	if got := minOf(xs); got != 1 {
		t.Errorf("minOf = %v, want 1", got)
	}
	if got := median(xs); got != 6 {
		t.Errorf("median = %v, want 6", got)
	}
	if got := percentile(xs, 90); got != 10 {
		t.Errorf("p90 = %v, want 10", got)
	}
	if got := percentile(seq(10), 50); got != 5.5 {
		t.Errorf("median of 1..10 = %v, want 5.5", got)
	}
}

// The tail is the highest percentile with at least ten samples beyond it.
func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n          int
		pct, value float64
	}{
		{10, 0, 0}, // nothing has ten samples beyond it
		{11, 100.0 / 11, 1},
		{100, 90, 90}, // ten samples above the 90th
		{1000, 99, 990},
	} {
		pct, value := tail(seq(c.n))
		if math.Abs(pct-c.pct) > 1e-9 || value != c.value {
			t.Errorf("tail of %d samples = p%v %v, want p%v %v", c.n, pct, value, c.pct, c.value)
		}
	}
}

// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles(seq(10))
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5], n=4) == [2.0, 4.0, 5.0]
	q1, q3 = quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5})
	if q1 != 2 || q3 != 5 {
		t.Errorf("quartiles = %v, %v, want 2, 5", q1, q3)
	}
}

func TestSelfTimeSubtractsChildCoverageOnce(t *testing.T) {
	spans := []span{
		{Name: "round", ID: 1, StartNs: 0, EndNs: 100e6},
		{Name: "a", ID: 2, Parent: 1, StartNs: 10e6, EndNs: 30e6},
		{Name: "a", ID: 3, Parent: 1, StartNs: 20e6, EndNs: 50e6},  // overlaps the first
		{Name: "b", ID: 4, Parent: 1, StartNs: 60e6, EndNs: 120e6}, // runs past the parent
		{Name: "c", ID: 5, Parent: 4, StartNs: 60e6, EndNs: 70e6},
	}
	want := map[string][2]float64{ // total, self
		"round": {100, 100 - 40 - 40},
		"a":     {50, 50},
		"b":     {60, 50},
		"c":     {10, 10},
	}
	for _, st := range selfTimes(spans) {
		w := want[st.Name]
		if st.TotalMs != w[0] || st.SelfMs != w[1] {
			t.Errorf("%s: total %v self %v, want %v %v", st.Name, st.TotalMs, st.SelfMs, w[0], w[1])
		}
	}
}
