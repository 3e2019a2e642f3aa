package core

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"dnnjps/internal/profile"
)

// Three hand-built raw curves, each with one position (2) that
// virtual-block clustering drops, so idx is not the identity.
func mixingCurve() *profile.Curve { // restricts to the Fig. 2 curve: l* = 2 (raw 3), ratio 2
	return &profile.Curve{
		Model: "mixing", F: []float64{0, 4, 5, 7, 12}, G: []float64{20, 6, 6.5, 2, 0},
		CloudMs: make([]float64, 5), Bytes: []int{2000, 600, 650, 200, 0}, Labels: make([]string, 5),
	}
}

func exactCurve() *profile.Curve { // f(l*) = g(l*) = 5 at restricted 2 (raw 3)
	return &profile.Curve{
		Model: "exact", F: []float64{0, 3, 4, 5, 9}, G: []float64{10, 6, 7, 5, 0},
		CloudMs: make([]float64, 5), Bytes: []int{100, 60, 70, 50, 0}, Labels: make([]string, 5),
	}
}

func zeroCurve() *profile.Curve { // f(0) > g(0): l* = 0
	return &profile.Curve{
		Model: "lstar0", F: []float64{1, 2, 2.5, 3}, G: []float64{0.5, 0.2, 0.3, 0},
		CloudMs: make([]float64, 4), Bytes: []int{50, 20, 30, 0}, Labels: make([]string, 4),
	}
}

func TestCrossingPositionsAndCuts(t *testing.T) {
	const n = 3
	for _, tc := range []struct {
		name         string
		curve        *profile.Curve
		mixes        bool
		lstar        int
		pos01, pos11 int      // pos(0, 1), pos(1, 1)
		cuts         [3][]int // at m = 0, 1, n
	}{
		{"mixing", mixingCurve(), true, 2, 1, 2, [3][]int{{3, 3, 3}, {1, 3, 3}, {1, 1, 1}}},
		{"exact", exactCurve(), false, 2, 2, 2, [3][]int{{3, 3, 3}, {3, 3, 3}, {3, 3, 3}}},
		{"l*=0", zeroCurve(), false, 0, 0, 0, [3][]int{{0, 0, 0}, {0, 0, 0}, {0, 0, 0}}},
	} {
		x, err := findCrossing(tc.curve)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if x.mixes() != tc.mixes || x.search.LStar != tc.lstar {
			t.Errorf("%s: mixes %v l* %d, want %v %d", tc.name, x.mixes(), x.search.LStar, tc.mixes, tc.lstar)
		}
		if got := [2]int{x.pos(0, 1), x.pos(1, 1)}; got != [2]int{tc.pos01, tc.pos11} {
			t.Errorf("%s: pos(0,1), pos(1,1) = %v, want %d %d", tc.name, got, tc.pos01, tc.pos11)
		}
		for i, m := range []int{0, 1, n} {
			if got := x.cuts(n, m); !slices.Equal(got, tc.cuts[i]) {
				t.Errorf("%s: cuts(%d, %d) = %v, want %v", tc.name, n, m, got, tc.cuts[i])
			}
		}
		if !tc.mixes {
			lo, hi := x.flank(n)
			s, k := x.splits(n)
			if lo != 0 || hi != 0 || !slices.Equal(s[:k], []int{0}) {
				t.Errorf("%s: flank %d %d splits %v, want 0 0 [0]", tc.name, lo, hi, s[:k])
			}
		}
		search, idx, err := SearchCurve(tc.curve)
		if err != nil || search != x.search || !slices.Equal(idx, x.idx) {
			t.Errorf("%s: SearchCurve = %+v %v %v, want the crossing's %+v %v", tc.name, search, idx, err, x.search, x.idx)
		}
	}
}

// The balance point of mixingCurve is m = 5n/7 and its floored ratio 2.
func TestCrossingSplitOrder(t *testing.T) {
	x, err := findCrossing(mixingCurve())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		why    string
		n      int
		lo, hi int
		want   []int
	}{
		{"five distinct: lo, hi, paper, 0, n", 10, 7, 8, []int{7, 8, 6, 0, 10}},
		{"balance point integral: hi is lo", 7, 5, 5, []int{5, 4, 0, 7}},
		{"floored ratio equals a flank, n the other", 2, 1, 2, []int{1, 2, 0}},
		{"n = 1", 1, 0, 1, []int{0, 1}},
	} {
		if lo, hi := x.flank(tc.n); lo != tc.lo || hi != tc.hi {
			t.Errorf("%s: flank(%d) = %d, %d, want %d, %d", tc.why, tc.n, lo, hi, tc.lo, tc.hi)
		}
		if s, k := x.splits(tc.n); !slices.Equal(s[:k], tc.want) {
			t.Errorf("%s: splits(%d) = %v, want %v", tc.why, tc.n, s[:k], tc.want)
		}
	}
}

// JPS is the best of planFromCuts over the split list, the first of
// equal makespans. On tie, one job costs 10 ms at either cut (4+6 at
// l*-1, 7+3 at l*) and the list is {0, 1}: split 0, the cut at l*, wins.
func TestJPSIsFirstBestOverSplits(t *testing.T) {
	tie := &profile.Curve{
		Model: "tie", F: []float64{0, 4, 7, 12}, G: []float64{20, 6, 3, 0},
		CloudMs: make([]float64, 4), Bytes: []int{2000, 600, 300, 0}, Labels: make([]string, 4),
	}
	if p, err := JPS(tie, 1); err != nil || !slices.Equal(p.Cuts, []int{2}) || p.Makespan != 10 {
		t.Errorf("JPS(tie, 1) = %+v, %v; want the first split's cut [2] at makespan 10", p, err)
	}
	for _, c := range []*profile.Curve{mixingCurve(), exactCurve(), zeroCurve(), tie} {
		for _, n := range []int{1, 2, 7, 10} {
			x, err := findCrossing(c)
			if err != nil {
				t.Fatal(err)
			}
			var want *Plan
			s, k := x.splits(n)
			for _, m := range s[:k] {
				if p := planFromCuts("JPS", c, x.cuts(n, m)); want == nil || p.Makespan < want.Makespan {
					want = p
				}
			}
			if got, err := JPS(c, n); err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("%s n=%d: JPS = %+v, %v; want %+v", c.Model, n, got, err, want)
			}
		}
	}
}

func TestMixCuts(t *testing.T) {
	for _, tc := range []struct {
		n, m int
		want []int
	}{
		{3, 0, []int{9, 9, 9}}, {3, 1, []int{4, 9, 9}}, {3, 3, []int{4, 4, 4}}, {0, 0, []int{}},
	} {
		if got := mixCuts(tc.n, tc.m, 4, 9); !slices.Equal(got, tc.want) {
			t.Errorf("mixCuts(%d, %d, 4, 9) = %v, want %v", tc.n, tc.m, got, tc.want)
		}
	}
}

func TestEachMultiset(t *testing.T) {
	for _, tc := range []struct{ n, k, want int }{{0, 3, 1}, {3, 1, 1}, {4, 3, 15}} {
		var prev []int
		visits := 0
		err := eachMultiset(tc.n, tc.k, func(counts []int) error {
			visits++
			sum := 0
			for _, c := range counts {
				sum += c
			}
			if len(counts) != tc.k || sum != tc.n {
				t.Errorf("(%d,%d): visit %v does not place %d jobs on %d positions", tc.n, tc.k, counts, tc.n, tc.k)
			}
			if prev != nil && slices.Compare(prev, counts) >= 0 {
				t.Errorf("(%d,%d): %v after %v is not lexicographic order", tc.n, tc.k, counts, prev)
			}
			prev = slices.Clone(counts)
			return nil
		})
		if err != nil || visits != tc.want || float64(visits) != multisetCount(tc.n, tc.k) {
			t.Errorf("(%d,%d): %d visits, err %v, multisetCount %g; want %d", tc.n, tc.k, visits, err, multisetCount(tc.n, tc.k), tc.want)
		}
	}

	stop := errors.New("stop")
	visits := 0
	err := eachMultiset(4, 3, func([]int) error {
		if visits++; visits == 3 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) || visits != 3 {
		t.Errorf("an error from the third visit: walk returned %v after %d visits", err, visits)
	}

	// Two classes: one walk nested in the other visits the product.
	seen := map[[5]int]bool{}
	err = eachMultiset(2, 2, func(a []int) error {
		return eachMultiset(1, 3, func(b []int) error {
			seen[[5]int{a[0], a[1], b[0], b[1], b[2]}] = true
			return nil
		})
	})
	if err != nil || len(seen) != 3*3 {
		t.Errorf("nested walk: %d distinct visits, err %v; want 9", len(seen), err)
	}
}
