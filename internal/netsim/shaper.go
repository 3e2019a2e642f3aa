package netsim

import (
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ShapedConn wraps a net.Conn and paces writes to a target bandwidth,
// the in-process equivalent of the paper's wondershaper-limited link.
// Pacing uses a virtual send clock with debt accounting so many small
// writes cost the same as one large write. TimeScale compresses the
// simulated time axis (0.001 = 1000× faster than real time) so
// integration tests can exercise slow channels quickly.
//
// The pacing state is mutex-guarded, and the lock is held across the
// pacing sleep: concurrent writers (or a writer racing a Delay call)
// serialize exactly like frames on one physical link, so a dedicated
// writer goroutine plus calibration traffic stays correct under -race.
type ShapedConn struct {
	net.Conn
	bytesPerSec float64
	timeScale   float64
	sleep       func(time.Duration)
	mu          sync.Mutex
	debt        time.Duration // accumulated unsent pacing time

	// Downlink pacing (reads). Zero downPerSec passes reads straight
	// through — the historical uplink-only shaping. The read side has
	// its own lock and debt so a paced reply never serializes behind a
	// paced upload: the directions are separate physical resources.
	downPerSec float64
	downMu     sync.Mutex
	downDebt   time.Duration

	// Ground-truth byte accounting for the observability layer: every
	// byte that actually reached the underlying conn, regardless of
	// what the channel model predicted it should cost.
	nBytes atomic.Int64
}

// Shape wraps conn at the channel's uplink bandwidth. timeScale <= 0
// defaults to 1 (real time).
func Shape(conn net.Conn, ch Channel, timeScale float64) *ShapedConn {
	if timeScale <= 0 {
		timeScale = 1
	}
	return &ShapedConn{
		Conn:        conn,
		bytesPerSec: ch.BytesPerSec(),
		downPerSec:  ch.DownBytesPerSec(),
		timeScale:   timeScale,
		sleep:       time.Sleep,
	}
}

// Write paces the payload at the configured bandwidth, then forwards
// it to the underlying conn.
func (s *ShapedConn) Write(p []byte) (int, error) {
	s.mu.Lock()
	d := time.Duration(float64(len(p)) / s.bytesPerSec * float64(time.Second) * s.timeScale)
	s.debt += d
	// Sleep in one shot once debt is observable; sub-millisecond debts
	// accumulate to keep pacing accurate without thousands of tiny
	// sleeps.
	if s.debt >= time.Millisecond {
		slept := s.debt
		s.debt = 0
		s.sleep(slept)
	}
	s.mu.Unlock()
	n, err := s.Conn.Write(p)
	if n > 0 {
		s.nBytes.Add(int64(n))
	}
	return n, err
}

// Read forwards to the underlying conn, then paces the received bytes
// at the downlink bandwidth. Pacing after the read (rather than before)
// means the sleep charges exactly the bytes that actually arrived, with
// the same debt accounting as the write side. With an unmodeled
// downlink this is a passthrough.
func (s *ShapedConn) Read(p []byte) (int, error) {
	n, err := s.Conn.Read(p)
	if n > 0 && s.downPerSec > 0 {
		s.downMu.Lock()
		s.downDebt += time.Duration(float64(n) / s.downPerSec * float64(time.Second) * s.timeScale)
		if s.downDebt >= time.Millisecond {
			slept := s.downDebt
			s.downDebt = 0
			s.sleep(slept)
		}
		s.downMu.Unlock()
	}
	return n, err
}

// BytesWritten returns how many bytes have reached the underlying
// connection. Safe for concurrent use.
func (s *ShapedConn) BytesWritten() int64 { return s.nBytes.Load() }

// Delay sleeps for the channel-scale duration d (e.g. per-message
// setup latency), compressed by the shaper's time scale. Like Write,
// it occupies the link for the duration.
func (s *ShapedConn) Delay(d time.Duration) {
	s.mu.Lock()
	s.sleep(time.Duration(float64(d) * s.timeScale))
	s.mu.Unlock()
}
