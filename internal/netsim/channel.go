// Package netsim models the wireless uplink between the mobile device
// and the cloud. The analytic side mirrors the paper's regression
// model t = w0 + w1·(s/b): a per-message channel setup latency plus a
// bandwidth-proportional transfer term (§6.1). The runtime side
// provides a token-bucket shaped net.Conn that plays the role of the
// paper's wondershaper-limited Wi-Fi link.
package netsim

import (
	"fmt"
	"math"
)

// Channel describes an uplink: name, sustained uplink bandwidth, and
// the per-message setup latency w0 (connection establishment, radio
// wake-up, protocol overhead). DownlinkMbps, when positive, models the
// reply direction as well; zero leaves the downlink unshaped and
// unpriced — the historical assumption that reply frames are free,
// which holds for broadband but biases planning toward the cloud on
// symmetric low-bandwidth channels (the Fig. 13 low-band region).
type Channel struct {
	Name         string
	UplinkMbps   float64
	DownlinkMbps float64
	SetupMs      float64
}

// WithDownlink returns a copy of the channel with the reply direction
// modeled at the given bandwidth (<= 0 disables downlink modeling).
func (c Channel) WithDownlink(mbps float64) Channel {
	c.DownlinkMbps = mbps
	return c
}

// The paper's three reference bandwidths (from Hu et al. [7]):
// 3G = 1.1 Mb/s, 4G = 5.85 Mb/s, Wi-Fi = 18.88 Mb/s. Setup latencies
// are typical RTT-scale values for each radio technology.
var (
	ThreeG = Channel{Name: "3G", UplinkMbps: 1.1, SetupMs: 60}
	FourG  = Channel{Name: "4G", UplinkMbps: 5.85, SetupMs: 25}
	WiFi   = Channel{Name: "Wi-Fi", UplinkMbps: 18.88, SetupMs: 8}
)

// Presets returns the three paper channels in ascending bandwidth.
func Presets() []Channel { return []Channel{ThreeG, FourG, WiFi} }

// At builds a synthetic channel for the Fig. 13 bandwidth sweep; mbps
// must be finite and above 0. Setup latency shrinks with bandwidth the
// way the presets do, clamped to [5ms, 70ms].
func At(mbps float64) Channel {
	if !(mbps > 0) || math.IsInf(mbps, 1) {
		panic(fmt.Sprintf("netsim: bandwidth %g is not a finite rate above 0", mbps))
	}
	setup := 70 / mbps * 1.1 // anchored so 1.1 Mb/s -> ~70ms
	if setup > 70 {
		setup = 70
	}
	if setup < 5 {
		setup = 5
	}
	return Channel{Name: fmt.Sprintf("%.2fMbps", mbps), UplinkMbps: mbps, SetupMs: setup}
}

// TxMs returns the modeled time in milliseconds to upload a payload of
// the given size: w0 + bits/bandwidth. A zero-byte payload costs
// nothing — no message is sent (the "cut after the last layer" case
// where everything runs locally).
func (c Channel) TxMs(bytes int) float64 {
	if bytes <= 0 {
		return 0
	}
	return c.SetupMs + float64(bytes)*8/(c.UplinkMbps*1e6)*1000
}

// RxMs returns the modeled time in milliseconds to download a reply of
// the given size, 0 when the downlink is unmodeled or nothing crosses
// it. No setup term: the reply rides the connection the request already
// paid to establish.
func (c Channel) RxMs(bytes int) float64 {
	if bytes <= 0 || c.DownlinkMbps <= 0 {
		return 0
	}
	return float64(bytes) * 8 / (c.DownlinkMbps * 1e6) * 1000
}

// BytesPerSec returns the channel's sustained uplink throughput.
func (c Channel) BytesPerSec() float64 { return c.UplinkMbps * 1e6 / 8 }

// DownBytesPerSec returns the downlink throughput, 0 when unmodeled.
func (c Channel) DownBytesPerSec() float64 {
	if c.DownlinkMbps <= 0 {
		return 0
	}
	return c.DownlinkMbps * 1e6 / 8
}

func (c Channel) String() string {
	return fmt.Sprintf("%s (%.2f Mb/s, setup %.0fms)", c.Name, c.UplinkMbps, c.SetupMs)
}
