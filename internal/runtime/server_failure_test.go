package runtime

import (
	"errors"
	"net"
	"testing"
	"time"

	"dnnjps/internal/netsim"
)

// Regression: when a worker fails (e.g. an out-of-range boundary node), the
// connection must actually drop. Previously fail() closed the stop
// channel but left the transport open, so the read loop stayed blocked
// in ReadByte and an idle client — all requests sent, waiting on
// replies — never observed the failure and hung forever.
func TestHandleConnClosesOnWorkerFailure(t *testing.T) {
	goroutinesSettle(t)
	m := testModel(t)
	srv := NewServer(m)
	t.Cleanup(srv.Close)
	cConn, sConn := net.Pipe()
	defer cConn.Close()

	served := make(chan error, 1)
	go func() { served <- srv.HandleConn(sConn) }()

	// The deadline goes on before the request: once that is written the
	// server may drop the connection at any moment, and a pipe whose far
	// end has closed refuses a deadline.
	if err := cConn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	// A request that decodes fine but fails on the worker.
	if err := writeJob(cConn, 1, []boundary{{Node: 999, T: mustVec(3, 1, 2, 3)}}); err != nil {
		t.Fatalf("write request: %v", err)
	}

	// The client now goes idle, just waiting for a reply. It must see
	// the connection drop, not a read that blocks until the deadline.
	var buf [1]byte
	_, err := cConn.Read(buf[:])
	if err == nil {
		t.Fatal("read after worker failure returned data, want connection drop")
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatal("idle client timed out instead of observing the dropped connection")
	}

	select {
	case err := <-served:
		if err == nil {
			t.Error("HandleConn must return the worker's error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("HandleConn did not return after worker failure")
	}
}

// tempErr is a transient accept error (EMFILE-style).
type tempErr struct{}

func (tempErr) Error() string   { return "accept: too many open files" }
func (tempErr) Timeout() bool   { return false }
func (tempErr) Temporary() bool { return true }

// flakyListener fails Accept with temporary errors before yielding
// real connections, then reports net.ErrClosed once closed.
type flakyListener struct {
	tmpLeft int
	conns   chan net.Conn
	closed  chan struct{}
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.tmpLeft > 0 {
		l.tmpLeft--
		return nil, tempErr{}
	}
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}
func (l *flakyListener) Close() error   { close(l.closed); return nil }
func (l *flakyListener) Addr() net.Addr { return &net.TCPAddr{} }

// Regression: a single transient Accept error (EMFILE under fd
// pressure) used to kill Serve outright. It must retry with backoff,
// still serve the connections that follow, and return only on a
// permanent error such as net.ErrClosed.
func TestServeRetriesTemporaryAcceptErrors(t *testing.T) {
	goroutinesSettle(t)
	m := testModel(t)
	srv := NewServer(m)
	t.Cleanup(srv.Close)
	lis := &flakyListener{tmpLeft: 3, conns: make(chan net.Conn, 1), closed: make(chan struct{})}

	served := make(chan error, 1)
	go func() { served <- srv.Serve(lis) }()

	cConn, sConn := net.Pipe()
	lis.conns <- sConn
	cl := NewClient(cConn, m, netsim.WiFi, 1e-6)
	defer cl.Close()
	if _, err := cl.RunJob(1, 0, input(1)); err != nil {
		t.Fatalf("job after transient accept errors: %v", err)
	}

	lis.Close()
	select {
	case err := <-served:
		if !errors.Is(err, net.ErrClosed) {
			t.Errorf("Serve returned %v, want net.ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after listener close")
	}
}

// A permanent, non-temporary accept error still returns immediately.
type brokenListener struct{ err error }

func (l *brokenListener) Accept() (net.Conn, error) { return nil, l.err }
func (l *brokenListener) Close() error              { return nil }
func (l *brokenListener) Addr() net.Addr            { return &net.TCPAddr{} }

func TestServeReturnsPermanentAcceptError(t *testing.T) {
	goroutinesSettle(t)
	m := testModel(t)
	srv := NewServer(m)
	t.Cleanup(srv.Close)
	want := errors.New("listener torn down")
	done := make(chan error, 1)
	go func() { done <- srv.Serve(&brokenListener{err: want}) }()
	select {
	case err := <-done:
		if !errors.Is(err, want) {
			t.Errorf("Serve returned %v, want %v", err, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return on permanent accept error")
	}
}
