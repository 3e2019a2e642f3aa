package main

import "testing"

// TestDemo runs the demo end to end. Its assertion is main's own: every
// offloaded class must equal local inference, or log.Fatal ends the
// test binary with a failure. The output carries wall-clock times, so
// it is not pinned as an Example.
func TestDemo(t *testing.T) {
	main()
}
