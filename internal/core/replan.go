package core

import (
	"fmt"

	"dnnjps/internal/netsim"
	"dnnjps/internal/profile"
)

// Replan re-runs the JPS planner for the n jobs that remain of a
// degraded run: the original curve is repriced at the channel the
// runtime actually measured (its G column recomputed from the cut
// tensor volumes) and planned afresh. The fault-tolerant runtime calls
// this when the measured uplink bandwidth falls past its re-plan
// threshold, then continues the surviving jobs under the new cuts.
func Replan(c *profile.Curve, measured netsim.Channel, n int) (*Plan, error) {
	p, err := ReplanWithHint(c, measured, n, ServerHint{})
	if err != nil {
		return nil, err
	}
	p.Method = "JPS-replan"
	return p, nil
}

// ServerHint is the cloud-saturation signal a client distills from the
// backpressure flags the server piggybacks on reply frames (see the
// runtime's fleet scheduler): the mean server-side queue wait each
// offloaded job is currently paying.
type ServerHint struct {
	// QueueMs is the mean server-reported queue wait per reply, in ms.
	QueueMs float64
}

// ReplanWithHint is Replan with the server's backpressure hint folded
// in (Replan is the zero hint): after repricing at the measured channel,
// every offloaded cut's G is surcharged by the observed queue wait. The
// planner's objective is the two-stage (f, g) flow-shop makespan, so
// loading the queue delay onto the non-mobile stage is what actually
// moves the Theorem 5.3 balance point — uniformly penalizing offloaded
// positions against the free local-only cut shifts cuts toward local
// compute, which is exactly the load response a saturating cloud asks
// its clients for.
func ReplanWithHint(c *profile.Curve, measured netsim.Channel, n int, hint ServerHint) (*Plan, error) {
	if c == nil {
		return nil, fmt.Errorf("core: Replan needs a profiled curve, got nil")
	}
	if measured.UplinkMbps <= 0 {
		return nil, fmt.Errorf("core: Replan needs a positive bandwidth, got %g", measured.UplinkMbps)
	}
	if hint.QueueMs < 0 {
		return nil, fmt.Errorf("core: Replan needs a non-negative queue hint, got %g", hint.QueueMs)
	}
	cc := c.Reprice(measured)
	for i := 0; i < cc.Len()-1; i++ {
		cc.G[i] += hint.QueueMs
	}
	p, err := JPS(cc, n)
	if err != nil {
		return nil, err
	}
	p.Method = "JPS-replan-hint"
	return p, nil
}
