package netsim

import (
	"math"
	"net"
	"testing"
	"testing/quick"
	"time"
)

func TestPresetBandwidths(t *testing.T) {
	if ThreeG.UplinkMbps != 1.1 || FourG.UplinkMbps != 5.85 || WiFi.UplinkMbps != 18.88 {
		t.Errorf("preset bandwidths drifted: %v %v %v", ThreeG, FourG, WiFi)
	}
	ps := Presets()
	if len(ps) != 3 {
		t.Fatalf("Presets len = %d", len(ps))
	}
	for i := 1; i < len(ps); i++ {
		if ps[i].UplinkMbps <= ps[i-1].UplinkMbps {
			t.Error("presets must be in ascending bandwidth order")
		}
	}
}

func TestTxMs(t *testing.T) {
	// AlexNet float32 input (3x224x224) over 3G must exceed 4s — the
	// paper's reason for omitting CO from Fig. 12(a).
	inputBytes := 3 * 224 * 224 * 4
	if got := ThreeG.TxMs(inputBytes); got < 4000 {
		t.Errorf("3G upload of %d bytes = %.0fms, want > 4000ms", inputBytes, got)
	}
	// Zero payload = no message.
	if ThreeG.TxMs(0) != 0 {
		t.Error("zero payload must cost nothing")
	}
	// Exact formula check.
	ch := Channel{UplinkMbps: 8, SetupMs: 10} // 1 MB/s
	if got := ch.TxMs(1e6); math.Abs(got-1010) > 1e-9 {
		t.Errorf("TxMs(1MB at 1MB/s) = %g, want 1010", got)
	}
}

func TestAtChannel(t *testing.T) {
	c := At(1.1)
	if math.Abs(c.SetupMs-70) > 1 {
		t.Errorf("At(1.1) setup = %g, want ~70", c.SetupMs)
	}
	if At(80).SetupMs != 5 {
		t.Errorf("At(80) setup = %g, want clamp at 5", At(80).SetupMs)
	}
	if At(18.88).UplinkMbps != 18.88 {
		t.Error("At must preserve bandwidth")
	}
}

func TestAtPanicsOnNonPositive(t *testing.T) {
	for _, mbps := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%g): expected panic", mbps)
				}
			}()
			At(mbps)
		}()
	}
}

func TestBytesPerSec(t *testing.T) {
	ch := Channel{UplinkMbps: 8}
	if got := ch.BytesPerSec(); got != 1e6 {
		t.Errorf("8 Mb/s = %g B/s, want 1e6", got)
	}
}

// Property: TxMs is monotone in payload size and in 1/bandwidth.
func TestTxMsMonotoneProperty(t *testing.T) {
	f := func(a, b uint16, m1, m2 uint8) bool {
		lo, hi := int(a), int(a)+int(b)+1
		bw1 := float64(m1%50) + 1
		bw2 := bw1 + float64(m2%50) + 1
		c1, c2 := At(bw1), At(bw2)
		if c1.TxMs(hi) < c1.TxMs(lo) {
			return false // more bytes can never be faster
		}
		if hi > 0 && c2.TxMs(hi) > c1.TxMs(hi) {
			return false // more bandwidth can never be slower
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestShapedConnPacesWrites(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()

	var slept time.Duration
	sc := Shape(client, Channel{UplinkMbps: 8}, 1) // 1 MB/s
	sc.sleep = func(d time.Duration) { slept += d }

	go func() {
		buf := make([]byte, 64<<10)
		for {
			if _, err := server.Read(buf); err != nil {
				return
			}
		}
	}()

	payload := make([]byte, 100_000) // 100 KB at 1 MB/s = 100 ms
	if _, err := sc.Write(payload); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if math.Abs(slept.Seconds()-0.1) > 0.001 {
		t.Errorf("slept %v, want ~100ms", slept)
	}
}

func TestShapedConnDebtAccumulation(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()

	var slept time.Duration
	sc := Shape(client, Channel{UplinkMbps: 8}, 1)
	sc.sleep = func(d time.Duration) { slept += d }

	go func() {
		buf := make([]byte, 4096)
		for {
			if _, err := server.Read(buf); err != nil {
				return
			}
		}
	}()

	// 100 writes of 1000 bytes = same total pacing as one 100 KB write.
	for i := 0; i < 100; i++ {
		if _, err := sc.Write(make([]byte, 1000)); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	total := slept + sc.debt
	if math.Abs(total.Seconds()-0.1) > 0.001 {
		t.Errorf("total pacing %v, want ~100ms", total)
	}
}

func TestShapedConnTimeScale(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()

	var slept time.Duration
	sc := Shape(client, Channel{UplinkMbps: 8}, 0.01)
	sc.sleep = func(d time.Duration) { slept += d }

	go func() {
		buf := make([]byte, 1<<20)
		for {
			if _, err := server.Read(buf); err != nil {
				return
			}
		}
	}()

	if _, err := sc.Write(make([]byte, 1_000_000)); err != nil { // 1s real -> 10ms scaled
		t.Fatalf("Write: %v", err)
	}
	if math.Abs(slept.Seconds()-0.01) > 0.001 {
		t.Errorf("slept %v, want ~10ms", slept)
	}

	slept = 0
	sc.Delay(time.Second)
	if math.Abs(slept.Seconds()-0.01) > 0.001 {
		t.Errorf("Delay slept %v, want ~10ms", slept)
	}
}

func TestShapeDefaultTimeScale(t *testing.T) {
	client, _ := net.Pipe()
	defer client.Close()
	sc := Shape(client, WiFi, 0)
	if sc.timeScale != 1 {
		t.Errorf("default time scale = %g, want 1", sc.timeScale)
	}
}

func TestShapedConnReadPassthroughWithoutDownlink(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()

	var slept time.Duration
	sc := Shape(client, Channel{UplinkMbps: 8}, 1)
	sc.sleep = func(d time.Duration) { slept += d }

	go func() { _, _ = server.Write(make([]byte, 100_000)) }()

	buf := make([]byte, 4096)
	var got int
	for got < 100_000 {
		n, err := sc.Read(buf)
		if err != nil {
			t.Fatalf("Read: %v", err)
		}
		got += n
	}
	if slept != 0 || sc.debt != 0 {
		t.Errorf("reads slept %v (debt %v), want passthrough", slept, sc.debt)
	}
}
