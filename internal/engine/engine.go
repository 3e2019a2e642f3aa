// Package engine executes real float32 forward passes over dag.Graph
// models — the replacement for the paper's PyTorch engines on both the
// client and the server. Weights are deterministically initialized
// from a seed so client and server instantiate identical models
// without shipping parameters, mirroring the paper's setup where both
// sides pre-load the same pre-cut model.
//
// The hot compute path lowers convolutions onto an im2col + blocked
// parallel SGEMM kernel (see gemm.go, im2col.go) and recycles
// activation buffers through a per-model tensor.Arena. Batch size is an
// argument of that one kernel set: n equally shaped jobs run as a
// single pass over the packed layout of batch.go, and a lone job is
// n == 1 of the same code. The engine picks each GEMM's driver itself
// (useAsm): the SIMD tile where it fits, else the pure-Go panel loop.
// Every kernel accumulates each output element in one fixed order, so
// outputs depend neither on the worker count nor on the batch size
// (useAsm reads no n), and the pure-Go loops match the direct-loop
// reference bit for bit at any batch size; the FMA tile, rounding once
// per multiply-add, matches it within a documented tolerance (see
// gemm_asm.go).
package engine

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sync"

	"dnnjps/internal/dag"
	"dnnjps/internal/nn"
	"dnnjps/internal/tensor"
)

// kernelPath selects the implementation of the heavy layers. The zero
// value, kernelGEMM, is the engine's own choice (useAsm in gemm_asm.go)
// and the only one outside the tests; the other three are pins the
// parity tests compare against the reference.
type kernelPath int

const (
	kernelGEMM   kernelPath = iota
	kernelDirect            // the naive single-image reference loops; n > 1 runs the panel loop, bit-identical to them
	kernelPanel             // every GEMM on the pure-Go panel loop, the one driver of a noasm build
	kernelAsm               // every GEMM on the SIMD tile where the CPU has one (FMA: within tolerance)
)

// params holds one layer's learned tensors.
type params struct {
	w, b []float32
}

// Model is a graph plus its instantiated weights, ready to execute.
type Model struct {
	g       *dag.Graph
	seed    int64
	params  map[int]params
	workers int        // per-layer parallelism; see Parallel
	kernel  kernelPath // heavy-layer implementation; zero is the engine's choice
	arena   *tensor.Arena
	quant   *quantState // int8 inference mode; nil = float32 (see quant.go)
	states  sync.Pool   // recycled *execState bookkeeping (see executeN)
	acts    sync.Pool   // recycled activation maps for Forward/ForwardBatch
}

// Load instantiates weights for every parametric layer of the graph.
// Initialization is deterministic in (seed, layer name): two Loads of
// the same model with the same seed produce bit-identical weights.
func Load(g *dag.Graph, seed int64) *Model {
	m := &Model{
		g:       g,
		seed:    seed,
		params:  make(map[int]params),
		workers: 1,
		arena:   tensor.NewArena(),
	}
	for _, id := range g.Topo() {
		node := g.Node(id)
		ins := g.InputShapes(id)
		switch l := node.Layer.(type) {
		case *nn.Conv2D:
			inC := ins[0].C() / max(l.Groups, 1)
			fanIn := l.KH * l.KW * inC
			p := params{w: initSlice(seed, l.LayerName+"/w", l.OutC*fanIn, fanIn)}
			if l.Bias {
				p.b = initSlice(seed, l.LayerName+"/b", l.OutC, fanIn)
			}
			m.params[id] = p
		case *nn.DepthwiseConv2D:
			c := ins[0].C()
			fanIn := l.KH * l.KW
			p := params{w: initSlice(seed, l.LayerName+"/w", c*fanIn, fanIn)}
			if l.Bias {
				p.b = initSlice(seed, l.LayerName+"/b", c, fanIn)
			}
			m.params[id] = p
		case *nn.Dense:
			in := ins[0].Elems()
			p := params{w: initSlice(seed, l.LayerName+"/w", l.Out*in, in)}
			if l.Bias {
				p.b = initSlice(seed, l.LayerName+"/b", l.Out, in)
			}
			m.params[id] = p
		case *nn.BatchNorm:
			c := ins[0].C()
			// Scale near 1, shift near 0 (folded inference form).
			p := params{w: make([]float32, c), b: make([]float32, c)}
			rng := rngFor(seed, l.LayerName)
			for i := 0; i < c; i++ {
				p.w[i] = 1 + 0.1*float32(rng.NormFloat64())
				p.b[i] = 0.05 * float32(rng.NormFloat64())
			}
			m.params[id] = p
		}
	}
	return m
}

// Graph returns the model's graph.
func (m *Model) Graph() *dag.Graph { return m.g }

func rngFor(seed int64, name string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(name))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}

// initSlice draws n values from N(0, 1/fanIn) — He-style scaling keeps
// activations bounded through deep stacks.
func initSlice(seed int64, name string, n, fanIn int) []float32 {
	rng := rngFor(seed, name)
	std := 1 / math.Sqrt(float64(max(fanIn, 1)))
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(rng.NormFloat64() * std)
	}
	return out
}

// Forward runs the whole model on one input tensor and returns the
// sink's output.
func (m *Model) Forward(input *tensor.Tensor) (*tensor.Tensor, error) {
	acts := m.getActs()
	defer m.putActs(acts)
	if err := m.Execute(acts, input, m.g.Topo()); err != nil {
		return nil, err
	}
	return acts[m.g.Sink()], nil
}

// getActs hands out a recycled activation map for whole-model runs.
// The liveness tracker retires entries eagerly, so by the end of a
// full-topo pass only the sink (which the caller keeps) is left and the
// map's buckets can be reused as-is.
func (m *Model) getActs() map[int]*tensor.Tensor {
	if a, _ := m.acts.Get().(map[int]*tensor.Tensor); a != nil {
		return a
	}
	return make(map[int]*tensor.Tensor, 8)
}

func (m *Model) putActs(acts map[int]*tensor.Tensor) {
	clear(acts)
	m.acts.Put(acts)
}

// ForwardBatch runs the whole model on a batch of equally shaped
// inputs and returns the per-input sink outputs. The inputs are packed
// into the engine's batched layout (see batch.go), executed as one
// pass — each conv/dense layer issues a single widened SGEMM instead
// of len(inputs) narrow ones — and the sink is unpacked again.
func (m *Model) ForwardBatch(inputs []*tensor.Tensor) ([]*tensor.Tensor, error) {
	packed, err := PackBatch(inputs)
	if err != nil {
		return nil, err
	}
	acts := m.getActs()
	defer m.putActs(acts)
	if err := m.ExecuteBatch(acts, len(inputs), packed, m.g.Topo()); err != nil {
		return nil, err
	}
	return UnpackBatch(acts[m.g.Sink()], len(inputs))
}

// execState tracks activation liveness for one Execute call so the
// arena can reclaim each buffer as soon as its last consumer inside
// the node list has run. owner[i] is the node whose eval allocated the
// buffer backing node i's activation (views and in-place ops share a
// predecessor's buffer; -1 marks caller-provided tensors, which are
// never recycled or mutated). refs counts live activations per owning
// node's buffer.
type execState struct {
	remaining  []int  // in-list consumers not yet executed
	releasable []bool // >0 consumers, all inside the node list
	owner      []int
	refs       []int
	pooled     []bool           // owner's buffer came from the arena
	tens       []*tensor.Tensor // owner's tensor, kept for recycling
	inList     []bool           // scratch: node is in this call's list
	ins        []*tensor.Tensor // scratch: predecessor activations
	next       int              // the node executeN runs after the current one, -1 at the end
	fused      int              // activation node whose clamp its BatchNorm already applied, or -1
}

// newExecState hands out liveness bookkeeping for one executeN call,
// recycled through the model's state pool — the graph size is fixed, so
// a returned state's slices always fit and a steady-state Forward pays
// no bookkeeping allocations.
func (m *Model) newExecState(nodes []int) *execState {
	n := m.g.Len()
	st, _ := m.states.Get().(*execState)
	if st == nil {
		st = &execState{
			remaining:  make([]int, n),
			releasable: make([]bool, n),
			owner:      make([]int, n),
			refs:       make([]int, n),
			pooled:     make([]bool, n),
			tens:       make([]*tensor.Tensor, n),
			inList:     make([]bool, n),
		}
	} else {
		for i := range st.remaining {
			st.remaining[i] = 0
			st.releasable[i] = false
			st.refs[i] = 0
			st.pooled[i] = false
			st.inList[i] = false
		}
	}
	for i := range st.owner {
		st.owner[i] = -1
	}
	st.next, st.fused = -1, -1
	inList := st.inList
	for _, id := range nodes {
		inList[id] = true
	}
	for _, id := range nodes {
		succs := m.g.Succs(id)
		cnt := 0
		for _, s := range succs {
			if inList[s] {
				cnt++
			}
		}
		st.remaining[id] = cnt
		// A node with consumers outside the list (a cut boundary the
		// caller will ship) or none at all (the sink) stays live.
		st.releasable[id] = cnt > 0 && cnt == len(succs)
	}
	return st
}

func sharesBuffer(a, b *tensor.Tensor) bool {
	return len(a.Data) > 0 && len(b.Data) > 0 && &a.Data[0] == &b.Data[0]
}

// adopt registers node id's freshly produced activation: either it
// shares a predecessor's buffer (views like Flatten, identity ops,
// in-place activations) or it owns a fresh arena buffer.
func (st *execState) adopt(id int, out *tensor.Tensor, ins []*tensor.Tensor, preds []int) {
	for i, in := range ins {
		if sharesBuffer(out, in) {
			if root := st.owner[preds[i]]; root >= 0 {
				st.owner[id] = root
				st.refs[root]++
			}
			return
		}
	}
	st.owner[id] = id
	st.refs[id] = 1
	st.pooled[id] = true
	st.tens[id] = out
}

// retire drops a dead activation from acts and recycles its buffer
// once no live activation shares it.
func (st *execState) retire(id int, acts map[int]*tensor.Tensor, arena *tensor.Arena) {
	delete(acts, id)
	root := st.owner[id]
	st.owner[id] = -1
	if root < 0 {
		return
	}
	st.refs[root]--
	if st.refs[root] == 0 && st.pooled[root] {
		st.pooled[root] = false
		arena.Put(st.tens[root])
		st.tens[root] = nil
	}
}

// canOverwrite reports whether pred p's buffer may be mutated in place
// by its consumer: p dies right after this node runs, nothing else
// shares its buffer, and the buffer came from the arena (never a
// caller-provided tensor).
func (st *execState) canOverwrite(p int) bool {
	if st.remaining[p] != 1 || !st.releasable[p] {
		return false
	}
	root := st.owner[p]
	return root >= 0 && st.pooled[root] && st.refs[root] == 1
}

// Execute evaluates the given nodes (which must be in topological
// order) into acts. The input tensor seeds the source node when the
// node list contains it; otherwise acts must already hold every
// predecessor activation — this is how the server resumes from a cut:
// the client ships the boundary activations, the server executes the
// remaining node range.
//
// Activations whose consumers all lie inside the node list are removed
// from acts once their last consumer has run and their buffers are
// recycled through the model's arena; entries the caller can still
// need — the sink, cut boundaries feeding nodes outside the list, and
// any tensor the caller provided — are always retained.
func (m *Model) Execute(acts map[int]*tensor.Tensor, input *tensor.Tensor, nodes []int) error {
	return m.executeN(acts, 1, input, nodes)
}

// ExecuteBatch is Execute over a packed batch of n equally shaped
// activations (see PackBatch for the layout). Every activation in acts
// — seeded boundary tensors and produced ones alike — is a packed
// batch-n tensor; per-node shapes are the batched form of the node's
// OutShape (dim 0 scaled by n). With n == 1 it is Execute.
func (m *Model) ExecuteBatch(acts map[int]*tensor.Tensor, n int, input *tensor.Tensor, nodes []int) error {
	if n < 1 {
		return fmt.Errorf("engine: batch size %d", n)
	}
	if n > 1 && m.quant != nil {
		// The int8 kernels are single-image; running a coalesced group
		// in float32 would make results depend on coalescing.
		return fmt.Errorf("engine: batched execution is not supported on a quantized model")
	}
	return m.executeN(acts, n, input, nodes)
}

// releaseState returns a state to the pool, dropping its tensor
// references so pooled bookkeeping never pins activations alive.
func (m *Model) releaseState(st *execState) {
	for i := range st.tens {
		st.tens[i] = nil
	}
	st.ins = st.ins[:0]
	m.states.Put(st)
}

func (m *Model) executeN(acts map[int]*tensor.Tensor, n int, input *tensor.Tensor, nodes []int) error {
	st := m.newExecState(nodes)
	defer m.releaseState(st)
	for i, id := range nodes {
		node := m.g.Node(id)
		st.next = -1
		if i+1 < len(nodes) {
			st.next = nodes[i+1]
		}
		if _, ok := node.Layer.(*nn.Input); ok {
			if input == nil {
				return fmt.Errorf("engine: %q needs an input tensor", node.Layer.Name())
			}
			if want := batchShape(node.OutShape, n); !input.Shape.Equal(want) {
				return fmt.Errorf("engine: input shape %v, model wants %v", input.Shape, want.Clone()) // a copy: boxing want would put its dims on the heap on every pass
			}
			acts[id] = input
			continue
		}
		preds := m.g.Preds(id)
		st.ins = st.ins[:0]
		for _, p := range preds {
			a, ok := acts[p]
			if !ok {
				return fmt.Errorf("engine: %q missing activation of predecessor %q",
					node.Layer.Name(), m.g.Node(p).Layer.Name())
			}
			st.ins = append(st.ins, a)
		}
		out, err := m.eval(id, node, st.ins, preds, st, n)
		if err != nil {
			return err
		}
		st.adopt(id, out, st.ins, preds)
		acts[id] = out
		for _, p := range preds {
			if st.remaining[p] > 0 {
				st.remaining[p]--
				if st.remaining[p] == 0 && st.releasable[p] {
					st.retire(p, acts, m.arena)
				}
			}
		}
	}
	return nil
}

// eval dispatches one layer at batch size n. Batch size is an argument
// of every kernel, not a code path: the kernels address the packed
// layout (see batch.go), which at n == 1 is the plain CHW tensor. Two
// implementations exist at n == 1 only, each selected from what the
// model already holds: the kernelDirect reference loops, and the int8
// kernels of a quantized model (which ExecuteBatch rejects at n > 1).
func (m *Model) eval(id int, node *dag.Node, ins []*tensor.Tensor, preds []int, st *execState, n int) (*tensor.Tensor, error) {
	direct := m.kernel == kernelDirect && n == 1
	switch l := node.Layer.(type) {
	case *nn.Conv2D:
		if m.quant != nil {
			return m.qconv2d(id, l, ins[0], preds[0], node.OutShape), nil
		}
		if direct {
			return conv2dDirect(m.arena, ins[0], node.OutShape, m.params[id], l.KH, l.KW, l.Stride,
				l.EffPadH(), l.EffPadW(), max(l.Groups, 1), m.workers), nil
		}
		return conv2dGEMM(m.arena, m.kernel, ins[0], node.OutShape, m.params[id], l.KH, l.KW, l.Stride,
			l.EffPadH(), l.EffPadW(), max(l.Groups, 1), m.workers, n), nil
	case *nn.DepthwiseConv2D:
		if m.quant != nil {
			return m.qdwconv2d(id, l, ins[0], preds[0], node.OutShape), nil
		}
		if direct {
			return dwconv2dDirect(m.arena, ins[0], node.OutShape, m.params[id], l.KH, l.KW, l.Stride, l.Pad, m.workers), nil
		}
		return dwconv2d(m.arena, ins[0], node.OutShape, m.params[id], l.KH, l.KW, l.Stride, l.Pad, m.workers, n), nil
	case *nn.MaxPool2D:
		return pool2d(m.arena, ins[0], node.OutShape, l.K, l.Stride, l.Pad, m.workers, n, maxpoolPlane), nil
	case *nn.AvgPool2D:
		return pool2d(m.arena, ins[0], node.OutShape, l.K, l.Stride, l.Pad, m.workers, n, avgpoolPlane), nil
	case *nn.GlobalAvgPool2D:
		// Batch-oblivious in the packed layout: each of the C·n planes
		// averages independently and lands at index c·n+b, which is the
		// packed vector layout.
		return globalAvgPool(m.arena, ins[0]), nil
	case *nn.Dense:
		if m.quant != nil {
			return m.qdense(id, l, ins[0], preds[0]), nil
		}
		if direct {
			return denseDirect(m.arena, ins[0], m.params[id], l.Out), nil
		}
		return denseGEMM(m.arena, m.kernel, ins[0], m.params[id], l.Out, m.workers, n), nil
	case *nn.Activation:
		if st.fused == id {
			return ins[0], nil // its BatchNorm applied the clamp in the same pass
		}
		return activate(m.arena, ins[0], l.Func, st.canOverwrite(preds[0])), nil
	case *nn.BatchNorm:
		if m.quant != nil && m.quant.folded[id] {
			return ins[0], nil // absorbed into the producing conv's epilogue
		}
		return batchNorm(m.arena, ins[0], m.params[id], n, m.fusedAct(id, st), st.canOverwrite(preds[0])), nil
	case *nn.LRN:
		return lrn(m.arena, ins[0], l.Size, n), nil
	case *nn.Dropout:
		return ins[0], nil // identity at inference
	case *nn.Flatten:
		return flatten(m.arena, ins[0], n), nil
	case *nn.Concat:
		return concat(m.arena, ins, batchShape(node.OutShape, n)), nil
	case *nn.Add:
		return add(m.arena, ins, st.canOverwrite(preds[0])), nil
	case *nn.Softmax:
		return softmax(m.arena, ins[0], n), nil
	default:
		return nil, fmt.Errorf("engine: unsupported layer type %T (%s)", node.Layer, node.Layer.Name())
	}
}

// fusedAct decides whether BatchNorm node id also applies the clamp of
// the activation that follows it: the BN's only consumer must be the
// very next node of this call's list and a ReLU/ReLU6. Nothing can then
// observe the un-clamped values — a BN that is a cut boundary, or feeds
// two nodes, or whose activation runs in a later call, keeps its own
// output — and conv → BN → ReLU6 makes one pass over the conv's result
// instead of two. The activation node (st.fused) becomes a view.
func (m *Model) fusedAct(id int, st *execState) spanAct {
	succs := m.g.Succs(id)
	if len(succs) != 1 || succs[0] != st.next {
		return spanNoAct
	}
	l, ok := m.g.Node(st.next).Layer.(*nn.Activation)
	if !ok {
		return spanNoAct
	}
	var act spanAct
	switch l.Func {
	case nn.ReLU:
		act = spanReLU
	case nn.ReLU6:
		act = spanReLU6
	default:
		return spanNoAct
	}
	st.fused = st.next
	return act
}

// Argmax returns the index of the largest element — the predicted
// class of a classifier head.
func Argmax(t *tensor.Tensor) int {
	best, bestV := 0, float32(math.Inf(-1))
	for i, v := range t.Data {
		if v > bestV {
			best, bestV = i, v
		}
	}
	return best
}
