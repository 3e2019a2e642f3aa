package main

import (
	"bytes"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

// echoServer echoes every connection back to its sender until it is closed;
// stop waits for its goroutines.
func echoServer(t *testing.T) (addr string, stop func()) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				_, _ = io.Copy(conn, conn) // ends when the peer closes
			}()
		}
	}()
	return lis.Addr().String(), func() {
		lis.Close()
		wg.Wait()
	}
}

func TestDelayLineDelaysBothWays(t *testing.T) {
	const delay = 5 * time.Millisecond
	addr, stop := echoServer(t)
	defer stop()
	line, err := newDelayLine(addr, delay, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer line.Close()
	conn, err := net.Dial("tcp", line.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	best := time.Hour
	buf := make([]byte, 8)
	for i := 0; i < 20; i++ {
		start := time.Now()
		if _, err := conn.Write(buf); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(conn, buf); err != nil {
			t.Fatal(err)
		}
		rtt := time.Since(start)
		if rtt < 2*delay {
			t.Fatalf("round trip %v is shorter than two delays of %v", rtt, delay)
		}
		best = min(best, rtt)
	}
	// The fastest round trip shows what the line adds when the host leaves
	// it alone: at most 2 ms over the configured delay each way.
	if limit := 2 * (delay + 2*time.Millisecond); best > limit {
		t.Errorf("best round trip %v, want at most %v", best, limit)
	}
}

func TestDelayLinePassesBytesExactlyAndCountsFrames(t *testing.T) {
	const frame, frames = 1000, 300
	addr, stop := echoServer(t)
	defer stop()
	line, err := newDelayLine(addr, time.Millisecond, frame, frame)
	if err != nil {
		t.Fatal(err)
	}
	defer line.Close()
	conn, err := net.Dial("tcp", line.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	sent := make([]byte, frame*frames)
	rand.New(rand.NewSource(1)).Read(sent)
	go func() {
		// Writes of odd sizes, so chunk edges never line up with frames.
		for rest := sent; len(rest) > 0; {
			n := min(len(rest), 777)
			if _, err := conn.Write(rest[:n]); err != nil {
				return // the reader below reports the short echo
			}
			rest = rest[n:]
		}
	}()
	got := make([]byte, len(sent))
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, sent) {
		t.Fatal("echoed bytes differ from the bytes sent")
	}
	st := line.Stats()
	if st.UpBytes != int64(len(sent)) || st.DownBytes != int64(len(sent)) {
		t.Errorf("counted %d up, %d down, want %d each", st.UpBytes, st.DownBytes, len(sent))
	}
	if st.Requests != frames || st.Replies != frames {
		t.Errorf("counted %d requests, %d replies, want %d each", st.Requests, st.Replies, frames)
	}
	if st.MaxInFlight < 1 || st.MaxInFlight > frames {
		t.Errorf("max in flight %d outside [1, %d]", st.MaxInFlight, frames)
	}
	if perFrame := st.RoundTrip / frames; perFrame < 2*time.Millisecond {
		t.Errorf("mean round trip %v, want at least the two delays", perFrame)
	}
	line.ResetStats()
	if st := line.Stats(); st != (delayStats{}) {
		t.Errorf("stats after reset: %+v", st)
	}
}

func TestDelayLineCloseLeaksNoGoroutine(t *testing.T) {
	addr, stop := echoServer(t)
	before := runtime.NumGoroutine()
	line, err := newDelayLine(addr, time.Millisecond, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		conn, err := net.Dial("tcp", line.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write([]byte("ping")); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(conn, make([]byte, 4)); err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
	}
	line.Close() // with connections still open on both sides
	stop()       // the echo handlers end once the line has closed their peers
	if after := runtime.NumGoroutine(); after > before {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines before, %d after Close:\n%s", before, after, buf[:runtime.Stack(buf, true)])
	}
}
