package core

import (
	"math"
	"testing"

	"dnnjps/internal/models"
	"dnnjps/internal/netsim"
	"dnnjps/internal/profile"
	"dnnjps/internal/tensor"
)

// ReplanWithHint must act on the planner's real objective: the hint
// surcharges the upload stage G at every offloaded position, which is
// what moves the Theorem 5.3 balance point — CloudMs never enters the
// two-stage flow-shop, so loading the delay there would be a no-op.

func TestReplanWithHintZeroMatchesReplan(t *testing.T) {
	c := fig2Curve()
	ch := c.Channel
	base, err := Replan(c, ch, 6)
	if err != nil {
		t.Fatal(err)
	}
	hinted, err := ReplanWithHint(c, ch, 6, ServerHint{QueueMs: 0})
	if err != nil {
		t.Fatal(err)
	}
	if hinted.Method != "JPS-replan-hint" {
		t.Errorf("Method = %q", hinted.Method)
	}
	for i := range base.Cuts {
		if base.Cuts[i] != hinted.Cuts[i] {
			t.Fatalf("zero hint changed cut %d: %d vs %d", i, hinted.Cuts[i], base.Cuts[i])
		}
	}
}

func TestReplanWithHintShiftsLocal(t *testing.T) {
	c := fig2Curve()
	// A queue wait far above any layer cost makes every offloaded
	// position unprofitable; the only unsurcharged cut is fully local.
	p, err := ReplanWithHint(c, c.Channel, 4, ServerHint{QueueMs: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	local := c.Len() - 1
	for i, cut := range p.Cuts {
		if cut != local {
			t.Errorf("job %d: cut %d under a saturating hint, want fully local %d", i, cut, local)
		}
	}
	// The original curve must be untouched: the surcharge works on the
	// repriced copy.
	if c.G[c.Len()-1] != 0 || c.G[0] != 20 {
		t.Errorf("hint mutated the caller's curve: G = %v", c.G)
	}
}

// TestReplanWithHintValidation: a channel or hint the planner cannot
// price is an error, not a plan. A NaN uplink or setup, or a NaN hint,
// would otherwise plan to a NaN makespan, and a +Inf uplink would price
// every upload as setup alone.
func TestReplanWithHintValidation(t *testing.T) {
	c := profile.BuildCurve(models.MustBuild("alexnet"), profile.RaspberryPi4(), profile.CloudGPU(),
		netsim.FourG, tensor.Float32)
	with := func(edit func(*netsim.Channel)) netsim.Channel {
		ch := netsim.FourG
		edit(&ch)
		return ch
	}
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		ch   netsim.Channel
		hint float64
	}{
		{"uplink 0", with(func(ch *netsim.Channel) { ch.UplinkMbps = 0 }), 0},
		{"uplink NaN", with(func(ch *netsim.Channel) { ch.UplinkMbps = nan }), 0},
		{"uplink +Inf", with(func(ch *netsim.Channel) { ch.UplinkMbps = inf }), 0},
		{"uplink -Inf", with(func(ch *netsim.Channel) { ch.UplinkMbps = -inf }), 0},
		{"setup NaN", with(func(ch *netsim.Channel) { ch.SetupMs = nan }), 0},
		{"hint -1", netsim.FourG, -1},
		{"hint NaN", netsim.FourG, nan},
		{"hint +Inf", netsim.FourG, inf},
	}
	for _, tc := range cases {
		if p, err := ReplanWithHint(c, tc.ch, 2, ServerHint{QueueMs: tc.hint}); err == nil {
			t.Errorf("%s: ReplanWithHint returned makespan %g and no error", tc.name, p.Makespan)
		}
		if tc.hint != 0 {
			continue
		}
		if p, err := Replan(c, tc.ch, 2); err == nil {
			t.Errorf("%s: Replan returned makespan %g and no error", tc.name, p.Makespan)
		}
	}
}

// TestReplanNilCurve: both entry points must reject a nil curve with
// an error instead of dereferencing it — the runner calls them with
// whatever WithCurve supplied, which may legitimately be unset.
func TestReplanNilCurve(t *testing.T) {
	ch := netsim.Channel{UplinkMbps: 8}
	if _, err := Replan(nil, ch, 2); err == nil {
		t.Error("Replan(nil curve) must error")
	}
	if _, err := ReplanWithHint(nil, ch, 2, ServerHint{}); err == nil {
		t.Error("ReplanWithHint(nil curve) must error")
	}
}

// TestReplanZeroHintIdentity: across job counts and channel speeds, a
// zero queue hint must reproduce Replan's cuts and schedule exactly —
// the surcharge is the ONLY thing the hint path adds.
func TestReplanZeroHintIdentity(t *testing.T) {
	c := fig2Curve()
	cases := []struct {
		name string
		ch   netsim.Channel
		n    int
	}{
		{"nominal-n1", c.Channel, 1},
		{"nominal-n6", c.Channel, 6},
		{"degraded-n4", netsim.Channel{UplinkMbps: c.Channel.UplinkMbps / 4, SetupMs: c.Channel.SetupMs}, 4},
		{"fast-n8", netsim.Channel{UplinkMbps: c.Channel.UplinkMbps * 8, SetupMs: c.Channel.SetupMs}, 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base, err := Replan(c, tc.ch, tc.n)
			if err != nil {
				t.Fatal(err)
			}
			hinted, err := ReplanWithHint(c, tc.ch, tc.n, ServerHint{})
			if err != nil {
				t.Fatal(err)
			}
			if len(base.Cuts) != len(hinted.Cuts) {
				t.Fatalf("cut counts differ: %d vs %d", len(base.Cuts), len(hinted.Cuts))
			}
			for i := range base.Cuts {
				if base.Cuts[i] != hinted.Cuts[i] {
					t.Errorf("job %d: zero-hint cut %d != replan cut %d", i, hinted.Cuts[i], base.Cuts[i])
				}
			}
			for i := range base.Sequence {
				if base.Sequence[i].ID != hinted.Sequence[i].ID {
					t.Errorf("position %d: zero-hint schedules job %d, replan job %d",
						i, hinted.Sequence[i].ID, base.Sequence[i].ID)
				}
			}
		})
	}
}
