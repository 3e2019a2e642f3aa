package engine

import (
	"runtime"
	"sync"
)

// Parallel sets the worker count used by the layers that split their
// work across goroutines: convolutions and dense layers (GEMM rows or
// columns; a lone job's dense layer splits its rows), depthwise
// convolutions and pooling (planes), and the im2col lowering; the
// elementwise layers stay serial. workers <= 0 selects GOMAXPROCS.
// Returns the model for chaining.
// Results are bit-identical regardless of worker count: each output
// element is written by exactly one goroutine.
func (m *Model) Parallel(workers int) *Model {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	m.workers = workers
	return m
}

// serialSpan reports whether parallelFor(workers, n, ...) would run
// its body inline. Hot kernels check it BEFORE building their closure:
// a func literal handed to parallelFor always escapes to the heap (the
// spawn path references it from new goroutines, and escape analysis is
// static), so guarding the serial case is what keeps a workers=1
// Forward at O(1) steady-state allocations.
func serialSpan(workers, n int) bool { return workers <= 1 || n < 2 }

// parallelFor splits [0, n) into contiguous chunks, one goroutine per
// chunk, and waits. With one worker (or tiny n) it runs inline.
func parallelFor(workers, n int, body func(lo, hi int)) {
	if serialSpan(workers, n) {
		body(0, n)
		return
	}
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
