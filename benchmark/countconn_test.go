package main

import (
	"io"
	"net"
	"testing"
)

func TestCountConnCountsBytesAndCalls(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	cc := &countConn{Conn: a}

	go func() {
		_, _ = io.CopyN(io.Discard, b, 10) // the writes below fail if this does
		_, _ = b.Write([]byte("reply"))
	}()
	for _, p := range [][]byte{[]byte("0123"), []byte("456789")} {
		if _, err := cc.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := io.ReadFull(cc, make([]byte, 5)); err != nil {
		t.Fatal(err)
	}
	if got := cc.writeBytes.Load(); got != 10 {
		t.Errorf("wrote %d bytes, want 10", got)
	}
	if got := cc.writes.Load(); got != 2 {
		t.Errorf("%d writes, want 2", got)
	}
	if got := cc.readBytes.Load(); got != 5 {
		t.Errorf("read %d bytes, want 5", got)
	}
	if got := cc.reads.Load(); got < 1 || got > 5 {
		t.Errorf("%d reads for 5 bytes", got)
	}
}
