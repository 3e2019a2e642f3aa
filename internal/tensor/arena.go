package tensor

import "sync"

// maxFreePerSize caps how many buffers of one volume an arena retains;
// beyond that, returned buffers are dropped for the GC. Steady-state
// inference needs at most a handful of live tensors per distinct
// volume, so a small cap bounds worst-case retention on models with
// many same-shaped layers.
const maxFreePerSize = 16

// Arena is a free-list allocator for tensors and raw float32, int8 and
// int32 buffers, keyed by exact element count. The inference engine allocates one
// activation per layer per forward pass; recycling turns a Forward
// from O(layers) tensor allocations into O(1). An Arena is safe for
// concurrent use — the runtime server executes jobs from several
// connections against one shared model.
//
// Recycled memory is handed out with undefined contents: every engine
// kernel writes each output element exactly once, so callers that need
// zeroed memory must clear it themselves.
//
// A nil *Arena is valid and degrades to plain make/GC allocation.
type Arena struct {
	mu      sync.Mutex
	tensors map[int][]*Tensor   // whole tensors (struct + shape reused)
	bufs    map[int][][]float32 // raw scratch buffers
	bufsI8  map[int][][]int8    // int8 scratch (quantized activations, im2col)
	bufsI32 map[int][][]int32   // int32 scratch (quantized accumulators)
}

// NewArena returns an empty arena.
func NewArena() *Arena {
	return &Arena{
		tensors: make(map[int][]*Tensor),
		bufs:    make(map[int][][]float32),
		bufsI8:  make(map[int][][]int8),
		bufsI32: make(map[int][][]int32),
	}
}

// pop takes, under a's lock, the item of n elements last pushed onto
// free, one of a's four free lists, if it holds one.
func pop[T any](a *Arena, free map[int][]T, n int) (x T, ok bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	list := free[n]
	if len(list) == 0 {
		return x, false
	}
	x = list[len(list)-1]
	list[len(list)-1] = *new(T) // the list no longer holds it
	free[n] = list[:len(list)-1]
	return x, true
}

// push keeps x, of n elements, on free under a's lock, unless free
// holds maxFreePerSize items of that size already.
func push[T any](a *Arena, free map[int][]T, n int, x T) {
	a.mu.Lock()
	if list := free[n]; len(list) < maxFreePerSize {
		free[n] = append(list, x)
	}
	a.mu.Unlock()
}

// count is how many items free holds.
func count[T any](free map[int][]T) (n int) {
	for _, list := range free {
		n += len(list)
	}
	return n
}

// Get returns a tensor of the given shape, reusing a free tensor of
// the exact volume when one is available. Contents are undefined.
func (a *Arena) Get(shape Shape) *Tensor {
	if a == nil {
		return New(shape)
	}
	if t, ok := pop(a, a.tensors, shape.Elems()); ok {
		t.Shape = shapeInto(t.Shape, shape)
		return t
	}
	t := New(shape)
	t.home = a
	return t
}

// shapeInto copies src's dims into dst's storage when it fits, so the
// recycled tensor keeps its Shape allocation too.
func shapeInto(dst, src Shape) Shape {
	if cap(dst) >= len(src) {
		dst = dst[:len(src)]
		copy(dst, src)
		return dst
	}
	return src.Clone()
}

// Put recycles a whole tensor. The caller must not touch t — or any
// view sharing its Data — afterwards.
func (a *Arena) Put(t *Tensor) {
	if a != nil && t != nil && len(t.Data) > 0 {
		push(a, a.tensors, len(t.Data), t)
	}
}

// Recycle is Put on the arena whose Get handed t out, for the holder of
// a tensor that has outlived the call that drew it — an activation the
// engine left with its caller — and has no other way back to that
// arena. A tensor made any other way, or nil, is left to the collector.
// Put's rule holds: nothing may touch t, or a view of it, afterwards.
func (t *Tensor) Recycle() {
	if t != nil {
		t.home.Put(t)
	}
}

// GetSlice returns a raw buffer of length n with undefined contents.
func (a *Arena) GetSlice(n int) []float32 {
	if a != nil && n > 0 {
		if buf, ok := pop(a, a.bufs, n); ok {
			return buf
		}
	}
	return make([]float32, n)
}

// PutSlice recycles a raw buffer previously obtained from GetSlice (or
// any float32 slice of the right size).
func (a *Arena) PutSlice(buf []float32) {
	if a != nil && len(buf) > 0 {
		push(a, a.bufs, len(buf), buf)
	}
}

// GetSliceI8 returns an int8 buffer of length n with undefined
// contents — the quantized-inference counterpart of GetSlice.
func (a *Arena) GetSliceI8(n int) []int8 {
	if a != nil && n > 0 {
		if buf, ok := pop(a, a.bufsI8, n); ok {
			return buf
		}
	}
	return make([]int8, n)
}

// PutSliceI8 recycles an int8 buffer.
func (a *Arena) PutSliceI8(buf []int8) {
	if a != nil && len(buf) > 0 {
		push(a, a.bufsI8, len(buf), buf)
	}
}

// GetSliceI32 returns an int32 buffer of length n with undefined
// contents — accumulator scratch for the quantized kernels.
func (a *Arena) GetSliceI32(n int) []int32 {
	if a != nil && n > 0 {
		if buf, ok := pop(a, a.bufsI32, n); ok {
			return buf
		}
	}
	return make([]int32, n)
}

// PutSliceI32 recycles an int32 buffer.
func (a *Arena) PutSliceI32(buf []int32) {
	if a != nil && len(buf) > 0 {
		push(a, a.bufsI32, len(buf), buf)
	}
}

// FreeBuffers reports how many tensors and buffers the arena currently
// retains — a test/diagnostics hook.
func (a *Arena) FreeBuffers() int {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return count(a.tensors) + count(a.bufs) + count(a.bufsI8) + count(a.bufsI32)
}
