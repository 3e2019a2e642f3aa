package main

import (
	"net"
	"sync"
	"time"
)

// delayLine is a TCP forwarder that holds every byte for a fixed one-way
// delay before passing it on, in both directions: the backhaul of the
// chain-2hop workload. Loopback has no latency, and without latency a
// forwarding stage that waits for each reply costs nothing, so stop-and-wait
// and a pipelined next hop would measure the same.
//
// It also counts what crosses it. Given the fixed sizes of a request and a
// reply frame it counts frames without parsing them: a request counts when
// its last byte arrives from the upstream side, a reply when its last byte
// has been delivered back upstream, and the difference is the number of
// forwards in flight.
type delayLine struct {
	lis      net.Listener
	target   string
	delay    time.Duration
	reqBytes int64 // request frame size; 0 disables frame counting
	repBytes int64

	wg sync.WaitGroup

	mu          sync.Mutex
	conns       []net.Conn
	closed      bool
	upBytes     int64
	downBytes   int64
	requests    int64
	replies     int64
	maxInFlight int64
	reqAt       time.Duration // sum over requests of arrival time since epoch
	repAt       time.Duration // sum over replies of delivery time since epoch
	epoch       time.Time
}

// delayStats is a snapshot of a delayLine's counters.
type delayStats struct {
	UpBytes, DownBytes int64
	Requests, Replies  int64
	MaxInFlight        int64
	// RoundTrip is the summed time from request arrival to reply delivery
	// over all replies; meaningful when Requests == Replies.
	RoundTrip time.Duration
}

// chunkQueue bounds how many chunks one direction may hold in its delay
// queue: at 64 KiB per chunk that is the buffer of a fat long link, and a
// reader that outruns it blocks, like a sender on a full pipe.
const chunkQueue = 256

type chunk struct {
	data []byte
	due  time.Time
}

// newDelayLine listens on a loopback port and forwards every accepted
// connection to target with the given one-way delay.
func newDelayLine(target string, delay time.Duration, reqBytes, repBytes int) (*delayLine, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &delayLine{
		lis: lis, target: target, delay: delay,
		reqBytes: int64(reqBytes), repBytes: int64(repBytes),
		epoch: time.Now(),
	}
	d.wg.Add(1)
	go d.accept()
	return d, nil
}

// Addr is the address upstream stages dial.
func (d *delayLine) Addr() string { return d.lis.Addr().String() }

func (d *delayLine) accept() {
	defer d.wg.Done()
	for {
		up, err := d.lis.Accept()
		if err != nil {
			return
		}
		down, err := net.Dial("tcp", d.target)
		if err != nil {
			up.Close()
			continue
		}
		if !d.track(up, down) {
			up.Close()
			down.Close()
			return
		}
		d.pump(up, down, true)
		d.pump(down, up, false)
	}
}

// track registers a connection pair for Close; false once closed.
func (d *delayLine) track(conns ...net.Conn) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return false
	}
	d.conns = append(d.conns, conns...)
	return true
}

// pump starts the two goroutines of one direction: a reader that stamps each
// chunk with its due time, and a writer that sleeps until then.
func (d *delayLine) pump(src, dst net.Conn, upstream bool) {
	q := make(chan chunk, chunkQueue)
	d.wg.Add(2)
	go func() {
		defer d.wg.Done()
		defer close(q)
		buf := make([]byte, 64<<10)
		for {
			n, err := src.Read(buf)
			if n > 0 {
				now := time.Now()
				if upstream {
					d.count(int64(n), now, true)
				}
				q <- chunk{data: append([]byte(nil), buf[:n]...), due: now.Add(d.delay)}
			}
			if err != nil {
				return
			}
		}
	}()
	go func() {
		defer d.wg.Done()
		for c := range q {
			time.Sleep(time.Until(c.due))
			if _, err := dst.Write(c.data); err != nil {
				// The peer is gone: unblock the reader and drain.
				src.Close()
				for range q {
				}
				return
			}
			if !upstream {
				d.count(int64(len(c.data)), time.Now(), false)
			}
		}
		// The source reached EOF: pass it on, keeping the other direction.
		if tc, ok := dst.(*net.TCPConn); ok {
			_ = tc.CloseWrite() // best effort; Close tears the pair down anyway
		}
	}()
}

// count adds n bytes to one direction and credits every frame they complete.
func (d *delayLine) count(n int64, at time.Time, upstream bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	since := at.Sub(d.epoch)
	if upstream {
		if d.reqBytes > 0 {
			frames := (d.upBytes+n)/d.reqBytes - d.upBytes/d.reqBytes
			d.requests += frames
			d.reqAt += time.Duration(frames) * since
			if f := d.requests - d.replies; f > d.maxInFlight {
				d.maxInFlight = f
			}
		}
		d.upBytes += n
		return
	}
	if d.repBytes > 0 {
		frames := (d.downBytes+n)/d.repBytes - d.downBytes/d.repBytes
		d.replies += frames
		d.repAt += time.Duration(frames) * since
	}
	d.downBytes += n
}

// Stats returns the counters so far.
func (d *delayLine) Stats() delayStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return delayStats{
		UpBytes: d.upBytes, DownBytes: d.downBytes,
		Requests: d.requests, Replies: d.replies,
		MaxInFlight: d.maxInFlight,
		RoundTrip:   d.repAt - d.reqAt,
	}
}

// ResetStats zeroes the counters between phases of a run. Call it only while
// nothing is in flight.
func (d *delayLine) ResetStats() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.upBytes, d.downBytes, d.requests, d.replies, d.maxInFlight = 0, 0, 0, 0, 0
	d.reqAt, d.repAt = 0, 0
}

// Close stops accepting, closes every forwarded connection and returns once
// all of the line's goroutines have exited.
func (d *delayLine) Close() {
	d.mu.Lock()
	d.closed = true
	conns := d.conns
	d.conns = nil
	d.mu.Unlock()
	d.lis.Close()
	for _, c := range conns {
		c.Close()
	}
	d.wg.Wait()
}
