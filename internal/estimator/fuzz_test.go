package estimator

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzEstimator drives the estimator with an arbitrary byte string
// decoded as a stream of (bytes, durMs) upload samples and config
// knobs. The invariants: never panic, the throughput estimate stays
// finite whatever arrives, the sample counter only counts accepted
// samples, and every recorded change point indexes an accepted sample.
func FuzzEstimator(f *testing.F) {
	// Seeds: a clean constant-rate stream, a step-down, degenerate
	// floats, and a config-twiddling stream.
	f.Add([]byte{})
	clean := make([]byte, 0, 13*8)
	for i := 0; i < 8; i++ {
		clean = appendSample(clean, 64<<10, 40)
	}
	f.Add(clean)
	step := make([]byte, 0, 13*12)
	for i := 0; i < 6; i++ {
		step = appendSample(step, 64<<10, 40)
	}
	for i := 0; i < 6; i++ {
		step = appendSample(step, 64<<10, 240)
	}
	f.Add(step)
	bad := appendSample(nil, -5, math.NaN())
	bad = appendSample(bad, 1<<30, math.Inf(1))
	bad = appendSample(bad, 0, 0)
	bad = appendSample(bad, 1024, 5e-324)
	f.Add(bad)

	f.Fuzz(func(t *testing.T, data []byte) {
		// First two bytes (when present) perturb the config; the zero
		// value must behave like defaults.
		cfg := Config{}
		if len(data) >= 2 {
			cfg.HalfLifeMs = float64(data[0]) * 10
			cfg.Drift = float64(data[1]) / 100
		}
		e := New(cfg)
		accepted := 0
		for len(data) >= 13 {
			op := data[0]
			bytes := int(int32(binary.LittleEndian.Uint32(data[1:5])))
			durMs := math.Float64frombits(binary.LittleEndian.Uint64(data[5:13]))
			data = data[13:]
			// A record with an odd op byte is not an upload: the committed
			// corpus frames its streams with them, so they are stepped over.
			if op%2 == 0 {
				before, _ := e.Mbps()
				_, fired := e.AddUpload(bytes, durMs)
				after, n := e.Mbps()
				ok := sampleOK(bytes, durMs)
				if !ok {
					if after != before {
						t.Fatalf("rejected sample (%d, %g) moved estimate %g -> %g", bytes, durMs, before, after)
					}
					if fired {
						t.Fatalf("rejected sample (%d, %g) fired a change point", bytes, durMs)
					}
				} else {
					accepted++
				}
				if n != accepted {
					t.Fatalf("sample count %d, want %d accepted", n, accepted)
				}
				if math.IsNaN(after) || math.IsInf(after, 0) || after < 0 {
					t.Fatalf("estimate went non-finite/negative: %g after (%d, %g)", after, bytes, durMs)
				}
			}
		}
		for _, cp := range e.ChangePoints() {
			if cp.Sample < 0 || cp.Sample >= accepted {
				t.Fatalf("change point at sample %d with only %d accepted", cp.Sample, accepted)
			}
			if math.IsNaN(cp.ToMbps) || math.IsInf(cp.ToMbps, 0) || cp.ToMbps <= 0 {
				t.Fatalf("change point with degenerate ToMbps %g", cp.ToMbps)
			}
		}
	})
}

// sampleOK mirrors AddUpload's acceptance rule for the fuzz oracle.
func sampleOK(bytes int, durMs float64) bool {
	if bytes <= 0 || durMs <= 0 || math.IsNaN(durMs) || math.IsInf(durMs, 0) {
		return false
	}
	mbps := float64(bytes) * 8 / (durMs * 1000)
	return mbps > 0 && !math.IsNaN(mbps) && !math.IsInf(mbps, 0)
}

// appendSample encodes one upload op for the fuzz stream.
func appendSample(b []byte, bytes int, durMs float64) []byte {
	b = append(b, 0) // op: upload
	var w [12]byte
	binary.LittleEndian.PutUint32(w[0:4], uint32(int32(bytes)))
	binary.LittleEndian.PutUint64(w[4:12], math.Float64bits(durMs))
	return append(b, w[:]...)
}
