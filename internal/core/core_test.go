package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"dnnjps/internal/flowshop"
	"dnnjps/internal/models"
	"dnnjps/internal/netsim"
	"dnnjps/internal/profile"
	"dnnjps/internal/tensor"
)

// fig2Curve encodes the introduction's go-through example as a curve:
// position 0 = upload raw input, position 1 = cut after l1 (f=4, g=6),
// position 2 = cut after l2 (f=7, g=2), position 3 = fully local.
func fig2Curve() *profile.Curve {
	return &profile.Curve{
		Model:   "fig2",
		Channel: netsim.Channel{Name: "toy", UplinkMbps: 1, SetupMs: 0},
		F:       []float64{0, 4, 7, 12},
		G:       []float64{20, 6, 2, 0},
		CloudMs: []float64{0.5, 0.3, 0.1, 0},
		Bytes:   []int{2000, 600, 200, 0},
		Labels:  []string{"input", "l1", "l2", "l3"},
	}
}

// synthCurve builds a random monotone curve: f linear-ish increasing,
// g convex-ish decreasing — the §3.2 shape.
func synthCurve(rng *rand.Rand, k int) *profile.Curve {
	c := &profile.Curve{
		Model:   "synth",
		Channel: netsim.Channel{Name: "toy"},
		F:       make([]float64, k),
		G:       make([]float64, k),
		CloudMs: make([]float64, k),
		Bytes:   make([]int, k),
		Labels:  make([]string, k),
	}
	f, g := 0.0, 80+rng.Float64()*40
	for i := 0; i < k; i++ {
		if i > 0 {
			f += 1 + rng.Float64()*10
			g *= 0.4 + rng.Float64()*0.5
		}
		c.F[i] = f
		c.G[i] = g
		c.Bytes[i] = int(g * 1000)
	}
	c.G[k-1] = 0
	c.Bytes[k-1] = 0
	return c
}

func TestBinarySearchCutFig2(t *testing.T) {
	c := fig2Curve()
	s, err := BinarySearchCut(c)
	if err != nil {
		t.Fatalf("BinarySearchCut: %v", err)
	}
	if s.LStar != 2 {
		t.Errorf("l* = %d, want 2 (leftmost f>=g)", s.LStar)
	}
	// ratio = floor((f(2)-g(2)) / (g(1)-f(1))) = floor(5/2) = 2.
	if s.Ratio != 2 {
		t.Errorf("ratio = %d, want 2", s.Ratio)
	}
	if s.Exact {
		t.Error("f(2)=7 != g(2)=2: not exact")
	}
}

func TestBinarySearchCutInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		k := 3 + rng.Intn(30)
		c := synthCurve(rng, k)
		s, err := BinarySearchCut(c)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		l := s.LStar
		if c.F[l] < c.G[l] {
			t.Fatalf("trial %d: f(l*)=%g < g(l*)=%g", trial, c.F[l], c.G[l])
		}
		if l > 0 && c.F[l-1] >= c.G[l-1] {
			t.Fatalf("trial %d: l*=%d not leftmost", trial, l)
		}
		// O(log k) step bound.
		if maxSteps := bits(k) + 1; s.Steps > maxSteps {
			t.Fatalf("trial %d: %d steps for k=%d", trial, s.Steps, k)
		}
	}
}

func bits(k int) int {
	b := 0
	for k > 0 {
		b++
		k >>= 1
	}
	return b
}

func TestBinarySearchCutExact(t *testing.T) {
	c := &profile.Curve{
		Model: "exact", F: []float64{0, 3, 5, 9}, G: []float64{10, 6, 5, 0},
		CloudMs: make([]float64, 4), Bytes: []int{100, 60, 50, 0}, Labels: make([]string, 4),
	}
	s, err := BinarySearchCut(c)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Exact || s.LStar != 2 {
		t.Errorf("want exact at 2, got %+v", s)
	}
}

func TestBinarySearchCutDegenerate(t *testing.T) {
	// f(0) >= g(0): offload-first already compute-bound.
	c := &profile.Curve{
		Model: "deg", F: []float64{0, 1}, G: []float64{0, 0},
		CloudMs: make([]float64, 2), Bytes: []int{0, 0}, Labels: make([]string, 2),
	}
	s, err := BinarySearchCut(c)
	if err != nil {
		t.Fatal(err)
	}
	if s.LStar != 0 || !s.Exact {
		t.Errorf("degenerate case: %+v", s)
	}
	short := &profile.Curve{Model: "short", F: []float64{0}, G: []float64{0}}
	if _, err := BinarySearchCut(short); err == nil {
		t.Error("single-position curve must error")
	}
}

func TestMixCounts(t *testing.T) {
	cases := []struct {
		n, ratio, wantPrev int
	}{
		{2, 2, 1},   // Fig. 2: one job each side
		{10, 0, 0},  // ratio 0: everything at l*
		{10, 1, 5},  // 1:1
		{10, 3, 7},  // 3:1 -> 7.5 floored
		{9, 4, 7},   // 4:1 -> 7.2 floored
		{1, 5, 0},   // single job stays at l*
		{0, 3, 0},   // no jobs
		{5, 100, 4}, // extreme ratio still leaves one at l*
	}
	for _, c := range cases {
		prev, at := MixCounts(c.n, c.ratio)
		if prev != c.wantPrev || prev+at != max(c.n, 0) {
			t.Errorf("MixCounts(%d,%d) = (%d,%d), want prev=%d", c.n, c.ratio, prev, at, c.wantPrev)
		}
	}
}

// A surplus below 1e-12 ms at l*-1 once gave a Ratio whose n*ratio
// overflowed (G[1] = 1 + 1e-13: Ratio 50 039 995 859 672 176,
// MixCounts(1000) = (-105, 1105), and JPSPaperRatio put every job at
// l* for a 5.0e6 ms makespan) or that had no int at all (1 + 4e-16:
// Ratio MinInt64). Either ratio puts n-1 jobs at l*-1.
func TestMixCountsHugeRatio(t *testing.T) {
	const n = 1000
	for _, g1 := range []float64{1 + 1e-13, 1 + 4e-16} {
		c := &profile.Curve{
			Model: "huge-ratio", F: []float64{0, 1, 5000}, G: []float64{100, g1, 0},
			CloudMs: make([]float64, 3), Bytes: []int{100, 50, 0}, Labels: make([]string, 3),
		}
		s, _, err := SearchCurve(c)
		if err != nil || s.LStar != 2 || s.Ratio < n {
			t.Fatalf("G[1] = %.17g: SearchCurve = %+v, %v; want l* = 2, Ratio >= %d", g1, s, err, n)
		}
		if prev, at := MixCounts(n, s.Ratio); prev != n-1 || at != 1 {
			t.Errorf("G[1] = %.17g: MixCounts(%d, %d) = (%d, %d), want (%d, 1)", g1, n, s.Ratio, prev, at, n-1)
		}
		p, err := JPSPaperRatio(c, n)
		if err != nil {
			t.Fatal(err)
		}
		if want := mixSpan(c, n, n-1, 1, 2); p.Makespan != want {
			t.Errorf("G[1] = %.17g: JPSPaperRatio makespan %g, want %g (n-1 jobs at cut 1)", g1, p.Makespan, want)
		}
	}
}

func TestJPSReproducesFig2(t *testing.T) {
	p, err := JPS(fig2Curve(), 2)
	if err != nil {
		t.Fatalf("JPS: %v", err)
	}
	if p.Makespan != 13 {
		t.Errorf("JPS makespan = %g, want 13 (the paper's mixed partition)", p.Makespan)
	}
	// One job at each of l1 and l2.
	counts := map[int]int{}
	for _, cut := range p.Cuts {
		counts[cut]++
	}
	if counts[1] != 1 || counts[2] != 1 {
		t.Errorf("cuts = %v, want one at 1 and one at 2", p.Cuts)
	}
	// BF agrees.
	bf, err := BruteForce(fig2Curve(), 2, 0)
	if err != nil {
		t.Fatalf("BruteForce: %v", err)
	}
	if bf.Makespan != 13 {
		t.Errorf("BF makespan = %g, want 13", bf.Makespan)
	}
}

func TestBaselinesFig2(t *testing.T) {
	c := fig2Curve()
	lo, _ := LO(c, 2)
	if lo.Makespan != 24 { // 2 x 12 serial local runs
		t.Errorf("LO makespan = %g, want 24", lo.Makespan)
	}
	co, _ := CO(c, 2)
	if co.Makespan != 40 { // two raw uploads back-to-back
		t.Errorf("CO makespan = %g, want 40", co.Makespan)
	}
	po, _ := PO(c, 2)
	// Single-job latency: pos1: 4+6+0.3=10.3 (best), pos2: 9.1, pos3: 12.
	// pos2 wins: 7+2+0.1 = 9.1.
	if po.Cuts[0] != 2 || po.Cuts[1] != 2 {
		t.Errorf("PO cuts = %v, want homogeneous at 2", po.Cuts)
	}
	if po.Makespan != 16 { // 7 + max(7,2) + 2
		t.Errorf("PO makespan = %g, want 16", po.Makespan)
	}
	// JPS strictly beats all baselines here.
	jps, _ := JPS(c, 2)
	for _, b := range []*Plan{lo, co, po} {
		if jps.Makespan >= b.Makespan {
			t.Errorf("JPS (%g) must beat %s (%g)", jps.Makespan, b.Method, b.Makespan)
		}
	}
}

func TestPlannersRejectBadN(t *testing.T) {
	c := fig2Curve()
	for name, fn := range map[string]func(*profile.Curve, int) (*Plan, error){
		"JPS": JPS, "PO": PO, "CO": CO, "LO": LO, "JPSBestMix": JPSBestMix,
	} {
		if _, err := fn(c, 0); err == nil {
			t.Errorf("%s(n=0) must error", name)
		}
	}
	if _, err := BruteForce(c, -1, 0); err == nil {
		t.Error("BruteForce(n<0) must error")
	}
	if _, err := BruteForceTwoPoint(c, 0); err == nil {
		t.Error("BruteForceTwoPoint(n=0) must error")
	}
}

func TestOptimalityChain(t *testing.T) {
	// BF <= BF2pt <= JPSBestMix <= JPS on random monotone curves.
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 120; trial++ {
		c := synthCurve(rng, 4+rng.Intn(8))
		n := 1 + rng.Intn(6)
		bf, err := BruteForce(c, n, 0)
		if err != nil {
			t.Fatalf("BF: %v", err)
		}
		bf2, err := BruteForceTwoPoint(c, n)
		if err != nil {
			t.Fatalf("BF2pt: %v", err)
		}
		bm, err := JPSBestMix(c, n)
		if err != nil {
			t.Fatalf("BestMix: %v", err)
		}
		jps, err := JPS(c, n)
		if err != nil {
			t.Fatalf("JPS: %v", err)
		}
		const eps = 1e-9
		if bf.Makespan > bf2.Makespan+eps {
			t.Fatalf("trial %d: BF %g > BF2pt %g", trial, bf.Makespan, bf2.Makespan)
		}
		if bf2.Makespan > bm.Makespan+eps {
			t.Fatalf("trial %d: BF2pt %g > BestMix %g", trial, bf2.Makespan, bm.Makespan)
		}
		if bm.Makespan > jps.Makespan+eps {
			t.Fatalf("trial %d: BestMix %g > JPS %g", trial, bm.Makespan, jps.Makespan)
		}
		// JPS within a modest factor of optimal on these shapes.
		if jps.Makespan > bf.Makespan*1.5+eps {
			t.Fatalf("trial %d: JPS %g way off optimal %g", trial, jps.Makespan, bf.Makespan)
		}
	}
}

func TestTheorem53ConditionsAndCounterexample(t *testing.T) {
	// Theorem 5.3 scenario: f(l*-1)+f(l*) = g(l*-1)+g(l*) and
	// g(l*-1) = f(l*). Curve: (f,g) = (3,7) at l*-1 and (7,3) at l*,
	// plus a fully-local option (10,0).
	c := &profile.Curve{
		Model: "thm53", Channel: netsim.Channel{Name: "toy"},
		F:       []float64{0, 3, 7, 10},
		G:       []float64{20, 7, 3, 0},
		CloudMs: make([]float64, 4),
		Bytes:   []int{2000, 700, 300, 0},
		Labels:  make([]string, 4),
	}
	// n=2: the half/half mix is exactly optimal, as the theorem's
	// proof sketch describes.
	jps2, _ := JPS(c, 2)
	bf2, _ := BruteForce(c, 2, 0)
	if math.Abs(jps2.Makespan-bf2.Makespan) > 1e-9 {
		t.Errorf("n=2: JPS %g != BF %g", jps2.Makespan, bf2.Makespan)
	}

	// Documented finding (EXPERIMENTS.md): at n=6 the exhaustive
	// optimum mixes l*-1 with the FULLY LOCAL cut (4x(3,7) + 2x(10,0),
	// makespan 32) and strictly beats every {l*-1, l*} mix (best 33),
	// even though the theorem's stated conditions hold. The theorem's
	// swap argument overlooks that a trailing local job (g = 0) also
	// shrinks the final communication term. JPS therefore tracks the
	// optimum within a few percent here rather than exactly.
	jps6, _ := JPS(c, 6)
	best6, _ := JPSBestMix(c, 6)
	bf6, _ := BruteForce(c, 6, 0)
	if bf6.Makespan != 32 {
		t.Fatalf("BF(6) = %g, expected the documented 32", bf6.Makespan)
	}
	if best6.Makespan != 33 {
		t.Fatalf("best {l*-1,l*} mix = %g, expected the documented 33", best6.Makespan)
	}
	if jps6.Makespan > bf6.Makespan*1.05 {
		t.Errorf("JPS(6) = %g, more than 5%% above optimum %g", jps6.Makespan, bf6.Makespan)
	}
}

func TestBruteForceSpaceGuard(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := synthCurve(rng, 12)
	if _, err := BruteForce(c, 512, 10_000); !errors.Is(err, ErrSearchSpaceTooLarge) {
		t.Errorf("want ErrSearchSpaceTooLarge, got %v", err)
	}
}

func TestBruteForceTwoPointLargeN(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := synthCurve(rng, 10)
	p, err := BruteForceTwoPoint(c, 512)
	if err != nil {
		t.Fatalf("BF2pt: %v", err)
	}
	if len(p.Cuts) != 512 {
		t.Errorf("plan covers %d jobs", len(p.Cuts))
	}
	jps, _ := JPS(c, 512)
	if p.Makespan > jps.Makespan+1e-9 {
		t.Errorf("BF2pt %g worse than JPS %g", p.Makespan, jps.Makespan)
	}
}

func TestSolveContinuous(t *testing.T) {
	c := fig2Curve()
	s, err := SolveContinuous(c)
	if err != nil {
		t.Fatalf("SolveContinuous: %v", err)
	}
	// Crossing of the interpolated f and g lies between positions 1
	// and 2 (f: 4->7, g: 6->2 cross at x = 1 + 2/7).
	if s.XStar <= 1 || s.XStar >= 2 {
		t.Errorf("x* = %g, want in (1,2)", s.XStar)
	}
	if math.Abs(s.FAtXStar-s.GAtXStar) > 1e-6 {
		t.Errorf("f(x*)=%g != g(x*)=%g", s.FAtXStar, s.GAtXStar)
	}
	// The continuous bound lower-bounds every discrete plan's average
	// makespan asymptotically; check against JPS at large n.
	jps, _ := JPS(c, 1000)
	if bound := s.AvgMakespanBound(); jps.AvgMs() < bound-1e-6 {
		t.Errorf("JPS avg %g below continuous bound %g", jps.AvgMs(), bound)
	}
}

func TestContinuousBoundTightForLargeN(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 50; trial++ {
		c := synthCurve(rng, 6+rng.Intn(8))
		s, err := SolveContinuous(c)
		if err != nil {
			continue // curves without a crossing are legitimately skipped
		}
		// JPSBestMix is O(n²); the bound holds at any n, so n only has
		// to dwarf the curve's 6–13 positions.
		best, err := JPSBestMix(c, 800)
		if err != nil {
			t.Fatal(err)
		}
		// The discrete optimum approaches the continuous bound from
		// above; a 2x gap would indicate a broken bound.
		if best.AvgMs() < s.AvgMakespanBound()-1e-6 {
			t.Fatalf("trial %d: discrete avg %g below bound %g", trial, best.AvgMs(), s.AvgMakespanBound())
		}
	}
}

func TestJPSOnRealModels(t *testing.T) {
	pi, gpu := profile.RaspberryPi4(), profile.CloudGPU()
	for _, name := range models.PaperModels() {
		g := models.MustBuild(name)
		for _, ch := range netsim.Presets() {
			curve := profile.BuildCurve(g, pi, gpu, ch, tensor.Float32)
			n := 100
			jps, err := JPS(curve, n)
			if err != nil {
				t.Fatalf("%s@%s JPS: %v", name, ch.Name, err)
			}
			lo, _ := LO(curve, n)
			co, _ := CO(curve, n)
			po, _ := PO(curve, n)
			// JPS never loses to LO/CO (it can express both), and does
			// not lose to PO by more than float fuzz.
			if jps.Makespan > lo.Makespan+1e-6 {
				t.Errorf("%s@%s: JPS %g > LO %g", name, ch.Name, jps.Makespan, lo.Makespan)
			}
			if jps.Makespan > co.Makespan+1e-6 {
				t.Errorf("%s@%s: JPS %g > CO %g", name, ch.Name, jps.Makespan, co.Makespan)
			}
			if jps.Makespan > po.Makespan*1.02 {
				t.Errorf("%s@%s: JPS %g noticeably worse than PO %g", name, ch.Name, jps.Makespan, po.Makespan)
			}
		}
	}
}

func TestJPSNeverLosesToBaselinesWait(t *testing.T) {
	// JPS must beat PO clearly on at least one paper configuration
	// (the whole point of the paper).
	g := models.MustBuild("alexnet")
	curve := profile.BuildCurve(g, profile.RaspberryPi4(), profile.CloudGPU(), netsim.FourG, tensor.Float32)
	jps, _ := JPS(curve, 100)
	po, _ := PO(curve, 100)
	lo, _ := LO(curve, 100)
	if jps.Makespan >= po.Makespan && jps.Makespan >= lo.Makespan {
		t.Errorf("JPS %g shows no gain over PO %g / LO %g on AlexNet@4G",
			jps.Makespan, po.Makespan, lo.Makespan)
	}
}

func TestPlanAccessors(t *testing.T) {
	p, _ := JPS(fig2Curve(), 2)
	if p.AvgMs() != p.Makespan/2 {
		t.Error("AvgMs mismatch")
	}
	empty := &Plan{}
	if empty.AvgMs() != 0 {
		t.Error("empty plan AvgMs must be 0")
	}
	if p.CloudTailMs < 0 {
		t.Error("negative cloud tail")
	}
}

func TestJobsForCutsPanicsOnBadCut(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	JobsForCuts(fig2Curve(), []int{99})
}

// Sequence sanity: every plan's sequence is a permutation of its jobs
// and Johnson-consistent.
func TestPlanSequenceIsPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		c := synthCurve(rng, 5+rng.Intn(6))
		n := 1 + rng.Intn(20)
		p, err := JPS(c, n)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[int]bool)
		for _, j := range p.Sequence {
			if seen[j.ID] || j.ID < 0 || j.ID >= n {
				t.Fatalf("bad sequence ids: %v", p.Sequence)
			}
			seen[j.ID] = true
		}
		if len(seen) != n {
			t.Fatalf("sequence covers %d of %d jobs", len(seen), n)
		}
		if got := flowshop.Makespan(p.Sequence); math.Abs(got-p.Makespan) > 1e-9 {
			t.Fatalf("stored makespan %g != recomputed %g", p.Makespan, got)
		}
	}
}

// As n grows, the JPS average makespan converges to the continuous
// relaxation bound of Theorem 5.2 (the discrete mix approximates x*
// ever more finely).
func TestJPSConvergesToContinuousBound(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	checked := 0
	for trial := 0; trial < 30 && checked < 10; trial++ {
		c := synthCurve(rng, 6+rng.Intn(6))
		sol, err := SolveContinuous(c)
		if err != nil {
			continue
		}
		// O(n²) planner: at n=1000 the pipeline-fill term is already
		// ~0.1% of the average, far inside the 25% asserted below.
		best, err := JPSBestMix(c, 1000)
		if err != nil {
			t.Fatal(err)
		}
		bound := sol.AvgMakespanBound()
		if best.AvgMs() < bound-1e-6 {
			t.Fatalf("trial %d: avg %g below bound %g", trial, best.AvgMs(), bound)
		}
		// Discrete two-point mixing reaches within 25% of the
		// continuous optimum on these curve shapes (the bound itself
		// interpolates between discrete positions, so exact equality is
		// not expected).
		if best.AvgMs() > bound*1.25 {
			t.Fatalf("trial %d: avg %g far above bound %g", trial, best.AvgMs(), bound)
		}
		checked++
	}
	if checked < 5 {
		t.Fatalf("only %d curves had crossings; generator drifted", checked)
	}
}

// JPS and Replan at plan-grid's n = 100 on its four models, both
// channels: the Pareto cuts (1), which Algorithm 2 searches in place,
// and the one plan built, for the winning split alone — its cuts, jobs,
// sequence and Plan (4); Replan adds the repriced curve and its G
// column (2). The counts are exact. A restricted copy of the curve per
// call (its struct, five columns and index map) made them 12 and 14;
// every candidate split built and sorted as well, with the Pareto cuts
// grown by append, 27–31 and 29–33, by how many splits a cell has.
func TestJPSAllocs(t *testing.T) {
	pi, gpu := devices()
	for _, model := range []string{"alexnet", "mobilenetv2", "resnet18", "googlenet"} {
		g := models.MustBuild(model)
		for _, ch := range []netsim.Channel{netsim.FourG, netsim.WiFi} {
			c := profile.BuildCurve(g, pi, gpu, ch, tensor.Float32)
			half := ch
			half.UplinkMbps /= 2
			for _, row := range []struct {
				name string
				plan func() (*Plan, error)
				want float64
			}{
				{"JPS", func() (*Plan, error) { return JPS(c, 100) }, 5},
				{"Replan", func() (*Plan, error) { return Replan(c, half, 100) }, 7},
			} {
				got := testing.AllocsPerRun(5, func() {
					if _, err := row.plan(); err != nil {
						t.Fatal(err)
					}
				})
				if got != row.want {
					t.Errorf("%s(%s at %s, n=100) = %.0f allocs/run, want %.0f", row.name, model, ch.Name, got, row.want)
				}
			}
		}
	}
}

// Planning cost of the line planners at the paper's n = 100 on AlexNet
// at 4G: JPS prices its up to five candidate splits, Replan reprices
// the curve at half the bandwidth first, and JPS+ prices every pair of
// Pareto cuts at every split, O(k²·n) candidates of O(n) each; each
// builds only its winner. cmd/benchgate holds jpsplus-n100 ÷ jps-n100
// to a bound.
func BenchmarkLinePlanning(b *testing.B) {
	pi, gpu := devices()
	c := profile.BuildCurve(models.MustBuild("alexnet"), pi, gpu, netsim.FourG, tensor.Float32)
	half := netsim.FourG
	half.UplinkMbps /= 2
	for _, leg := range []struct {
		name string
		plan func() (*Plan, error)
	}{
		{"jps-n100", func() (*Plan, error) { return JPS(c, 100) }},
		{"replan-n100", func() (*Plan, error) { return Replan(c, half, 100) }},
		{"jpsplus-n100", func() (*Plan, error) { return JPSPlus(c, 100) }},
	} {
		b.Run(leg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := leg.plan(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
