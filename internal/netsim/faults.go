package netsim

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"
)

// FaultSpec configures deterministic fault injection for one direction
// of a connection (uplink = the injected side's writes, downlink = its
// reads). Probabilities are per I/O operation — one Write call is one
// "frame" at this layer, so a dropped frame desynchronizes the byte
// stream exactly the way a lost segment without retransmission would,
// and the peer sees garbage or a stall rather than a tidy error.
type FaultSpec struct {
	// DropProb silently discards the operation's bytes: the Write
	// claims success (or the Read retries on the next frame), but
	// nothing crosses the link.
	DropProb float64
	// StallProb freezes the operation for StallMs of channel time
	// before it proceeds — a radio fade or a retransmission burst.
	StallProb float64
	StallMs   float64
	// DisconnectProb tears the connection down mid-operation; the
	// underlying conn is closed and the op returns an error.
	DisconnectProb float64
	// DisconnectAfterBytes, when > 0, tears the connection down once
	// this many bytes have passed in this direction — a scripted
	// mid-stream kill for reproducible tests.
	DisconnectAfterBytes int64
	// Degrade scripts bandwidth decay over channel time: from step
	// AfterMs on, throughput in this direction is capped at Mbps by
	// extra pacing. Steps must be sorted by AfterMs; Mbps <= 0 means
	// uncapped. When the surrounding shaper's nominal rate is declared
	// with WithNominal, the injector charges only the difference
	// between the cap and the nominal pacing, so the capped rate — not
	// the series composition of the two sleeps — is what the wire
	// delivers.
	Degrade []DegradeStep
}

// DegradeStep is one point of a scripted bandwidth profile.
type DegradeStep struct {
	AfterMs float64 // channel-time offset from connection creation
	Mbps    float64 // throughput cap from this point on
}

// active reports whether the spec can inject anything at all.
func (s FaultSpec) active() bool {
	return s.DropProb > 0 || s.StallProb > 0 || s.DisconnectProb > 0 ||
		s.DisconnectAfterBytes > 0 || len(s.Degrade) > 0
}

// capAt returns the bandwidth cap in force at the given channel time
// (0 = uncapped).
func (s FaultSpec) capAt(elapsedMs float64) float64 {
	rate := 0.0
	for _, st := range s.Degrade {
		if elapsedMs >= st.AfterMs {
			rate = st.Mbps
		}
	}
	if rate < 0 {
		rate = 0
	}
	return rate
}

// ErrInjectedDisconnect is the error surfaced by a scripted or
// probabilistic disconnect, wrapped with direction context.
var ErrInjectedDisconnect = fmt.Errorf("netsim: injected disconnect")

// FaultStats counts what the injector actually did, for assertions
// and experiment reports.
type FaultStats struct {
	UpBytes, DownBytes     int64
	DroppedUp, DroppedDown int
	Stalls                 int
	Disconnected           bool
}

// FaultyConn wraps a net.Conn with seeded, deterministic fault
// injection: probabilistic frame drops, read/write stalls, mid-stream
// disconnects, and scripted bandwidth degradation over time. It plays
// the volatile wireless link under a runtime client (or over an
// accepted server conn): the shaper still paces the nominal channel,
// the injector adds the pathology on top. All fault state is guarded
// by one mutex, and the mutex is held across injected sleeps so the
// faults serialize like contention on one physical radio.
type FaultyConn struct {
	net.Conn
	up, down FaultSpec
	scale    float64
	start    time.Time
	sleep    func(time.Duration)
	now      func() time.Time
	// Nominal shaper rate of writes (Mb/s, 0 = undeclared); see
	// WithNominal.
	upNom float64

	mu    sync.Mutex
	rng   *rand.Rand
	stats FaultStats
}

// Inject wraps conn with the given per-direction fault specs and a
// seeded RNG. timeScale compresses stall and pacing durations exactly
// like netsim.Shape (<= 0 defaults to 1); the Degrade schedule's
// AfterMs offsets are channel time and scale the same way.
func Inject(conn net.Conn, up, down FaultSpec, seed int64, timeScale float64) *FaultyConn {
	if timeScale <= 0 {
		timeScale = 1
	}
	now := time.Now
	return &FaultyConn{
		Conn:  conn,
		up:    up,
		down:  down,
		scale: timeScale,
		start: now(),
		sleep: time.Sleep,
		now:   now,
		rng:   rand.New(rand.NewSource(seed)),
	}
}

// WithNominal declares the bandwidth the surrounding shaper already
// paces writes at; a ShapedConn leaves reads unpaced, so a read cap is
// charged in full. An injected FaultyConn usually sits under a
// ShapedConn, so every written byte pays the nominal pacing before it
// reaches the injector; without the declaration a Degrade cap's pacing
// stacks on top and the wire delivers the series composition of the
// two rates (1/(1/nominal + 1/cap)) instead of the cap. With it, the
// injector charges only the difference, so the scripted Mbps is the
// effective rate an estimator on the client measures.
func (f *FaultyConn) WithNominal(ch Channel) *FaultyConn {
	f.upNom = ch.UplinkMbps
	return f
}

// Stats snapshots the injection counters.
func (f *FaultyConn) Stats() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// elapsedMs returns channel time since the conn was created.
func (f *FaultyConn) elapsedMs() float64 {
	return float64(f.now().Sub(f.start)) / float64(time.Millisecond) / f.scale
}

// inject runs the shared fault ladder for one operation of n bytes
// under the given spec. It returns drop=true when the bytes must be
// discarded, or a non-nil error when the connection was torn down.
// Called with f.mu held.
func (f *FaultyConn) inject(spec FaultSpec, n int, bytes *int64, dropped *int, nomMbps float64, dir string) (drop bool, err error) {
	if f.stats.Disconnected {
		return false, fmt.Errorf("%w (%s)", ErrInjectedDisconnect, dir)
	}
	if spec.StallProb > 0 && f.rng.Float64() < spec.StallProb {
		f.stats.Stalls++
		f.sleep(time.Duration(spec.StallMs * f.scale * float64(time.Millisecond)))
	}
	if rate := spec.capAt(f.elapsedMs()); rate > 0 {
		// Extra pacing to the degraded rate. With a declared nominal
		// (WithNominal) only the difference against the shaper's own
		// pacing is charged, so the cap is the effective rate; a cap at
		// or above the nominal then costs nothing.
		per := float64(n) * 8 / (rate * 1e6)
		if nomMbps > 0 {
			per -= float64(n) * 8 / (nomMbps * 1e6)
		}
		if per > 0 {
			f.sleep(time.Duration(per * f.scale * float64(time.Second)))
		}
	}
	disconnect := spec.DisconnectProb > 0 && f.rng.Float64() < spec.DisconnectProb
	if spec.DisconnectAfterBytes > 0 && *bytes+int64(n) >= spec.DisconnectAfterBytes {
		disconnect = true
	}
	if disconnect {
		f.stats.Disconnected = true
		_ = f.Conn.Close()
		return false, fmt.Errorf("%w (%s)", ErrInjectedDisconnect, dir)
	}
	*bytes += int64(n)
	if spec.DropProb > 0 && f.rng.Float64() < spec.DropProb {
		*dropped++
		return true, nil
	}
	return false, nil
}

// Write applies the uplink fault ladder, then forwards to the wrapped
// conn. A dropped frame returns (len(p), nil) — the sender believes it
// succeeded, exactly like an unacknowledged datagram.
func (f *FaultyConn) Write(p []byte) (int, error) {
	if !f.up.active() {
		return f.Conn.Write(p)
	}
	f.mu.Lock()
	drop, err := f.inject(f.up, len(p), &f.stats.UpBytes, &f.stats.DroppedUp, f.upNom, "write")
	f.mu.Unlock()
	if err != nil {
		return 0, err
	}
	if drop {
		return len(p), nil
	}
	return f.Conn.Write(p)
}

// Read applies the downlink fault ladder to each frame the peer
// delivers. A dropped frame is consumed from the wire and discarded,
// and the Read blocks for the next one — the reader never learns the
// bytes existed.
func (f *FaultyConn) Read(p []byte) (int, error) {
	if !f.down.active() {
		return f.Conn.Read(p)
	}
	for {
		n, err := f.Conn.Read(p)
		if err != nil {
			return n, err
		}
		f.mu.Lock()
		drop, ierr := f.inject(f.down, n, &f.stats.DownBytes, &f.stats.DroppedDown, 0, "read")
		f.mu.Unlock()
		if ierr != nil {
			return 0, ierr
		}
		if !drop {
			return n, nil
		}
	}
}
