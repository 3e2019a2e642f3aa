package main

import (
	"net"
	"sync/atomic"
)

// countConn wraps a net.Conn and counts the bytes and calls that cross it
// in each direction, so the wire layer's volume and syscall-sized operations
// per job are exact counts taken from outside the runtime.
type countConn struct {
	net.Conn
	readBytes, writeBytes atomic.Int64
	reads, writes         atomic.Int64
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.readBytes.Add(int64(n))
		c.reads.Add(1)
	}
	return n, err
}

func (c *countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if n > 0 {
		c.writeBytes.Add(int64(n))
		c.writes.Add(1)
	}
	return n, err
}
