//go:build !linux

package engine

import "testing"

// guardedFloats has no guard page off linux: an exact-length slice is
// the best a portable test can do.
func guardedFloats(_ *testing.T, n int) []float32 { return make([]float32, n) }
