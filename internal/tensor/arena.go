package tensor

import "sync"

// maxFreePerSize caps how many buffers of one volume an arena retains;
// beyond that, returned buffers are dropped for the GC. Steady-state
// inference needs at most a handful of live tensors per distinct
// volume, so a small cap bounds worst-case retention on models with
// many same-shaped layers.
const maxFreePerSize = 16

// Arena is a free-list allocator for tensors and raw float32 buffers,
// keyed by exact element count. The inference engine allocates one
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

// Get returns a tensor of the given shape, reusing a free tensor of
// the exact volume when one is available. Contents are undefined.
func (a *Arena) Get(shape Shape) *Tensor {
	if a == nil {
		return New(shape)
	}
	n := shape.Elems()
	a.mu.Lock()
	if list := a.tensors[n]; len(list) > 0 {
		t := list[len(list)-1]
		list[len(list)-1] = nil
		a.tensors[n] = list[:len(list)-1]
		a.mu.Unlock()
		t.Shape = shapeInto(t.Shape, shape)
		return t
	}
	a.mu.Unlock()
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
	if a == nil || t == nil || len(t.Data) == 0 {
		return
	}
	a.mu.Lock()
	if list := a.tensors[len(t.Data)]; len(list) < maxFreePerSize {
		a.tensors[len(t.Data)] = append(list, t)
	}
	a.mu.Unlock()
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
	if a == nil || n == 0 {
		return make([]float32, n)
	}
	a.mu.Lock()
	if list := a.bufs[n]; len(list) > 0 {
		buf := list[len(list)-1]
		list[len(list)-1] = nil
		a.bufs[n] = list[:len(list)-1]
		a.mu.Unlock()
		return buf
	}
	a.mu.Unlock()
	return make([]float32, n)
}

// PutSlice recycles a raw buffer previously obtained from GetSlice (or
// any float32 slice of the right size).
func (a *Arena) PutSlice(buf []float32) {
	if a == nil || len(buf) == 0 {
		return
	}
	a.mu.Lock()
	if list := a.bufs[len(buf)]; len(list) < maxFreePerSize {
		a.bufs[len(buf)] = append(list, buf)
	}
	a.mu.Unlock()
}

// GetSliceI8 returns an int8 buffer of length n with undefined
// contents — the quantized-inference counterpart of GetSlice.
func (a *Arena) GetSliceI8(n int) []int8 {
	if a == nil || n == 0 {
		return make([]int8, n)
	}
	a.mu.Lock()
	if list := a.bufsI8[n]; len(list) > 0 {
		buf := list[len(list)-1]
		list[len(list)-1] = nil
		a.bufsI8[n] = list[:len(list)-1]
		a.mu.Unlock()
		return buf
	}
	a.mu.Unlock()
	return make([]int8, n)
}

// PutSliceI8 recycles an int8 buffer.
func (a *Arena) PutSliceI8(buf []int8) {
	if a == nil || len(buf) == 0 {
		return
	}
	a.mu.Lock()
	if list := a.bufsI8[len(buf)]; len(list) < maxFreePerSize {
		a.bufsI8[len(buf)] = append(list, buf)
	}
	a.mu.Unlock()
}

// GetSliceI32 returns an int32 buffer of length n with undefined
// contents — accumulator scratch for the quantized kernels.
func (a *Arena) GetSliceI32(n int) []int32 {
	if a == nil || n == 0 {
		return make([]int32, n)
	}
	a.mu.Lock()
	if list := a.bufsI32[n]; len(list) > 0 {
		buf := list[len(list)-1]
		list[len(list)-1] = nil
		a.bufsI32[n] = list[:len(list)-1]
		a.mu.Unlock()
		return buf
	}
	a.mu.Unlock()
	return make([]int32, n)
}

// PutSliceI32 recycles an int32 buffer.
func (a *Arena) PutSliceI32(buf []int32) {
	if a == nil || len(buf) == 0 {
		return
	}
	a.mu.Lock()
	if list := a.bufsI32[len(buf)]; len(list) < maxFreePerSize {
		a.bufsI32[len(buf)] = append(list, buf)
	}
	a.mu.Unlock()
}

// FreeBuffers reports how many tensors and buffers the arena currently
// retains — a test/diagnostics hook.
func (a *Arena) FreeBuffers() int {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for _, list := range a.tensors {
		n += len(list)
	}
	for _, list := range a.bufs {
		n += len(list)
	}
	for _, list := range a.bufsI8 {
		n += len(list)
	}
	for _, list := range a.bufsI32 {
		n += len(list)
	}
	return n
}
