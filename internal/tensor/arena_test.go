package tensor

import "testing"

func TestArenaRecyclesTensors(t *testing.T) {
	a := NewArena()
	t1 := a.Get(NewCHW(2, 3, 4))
	if len(t1.Data) != 24 {
		t.Fatalf("len = %d, want 24", len(t1.Data))
	}
	a.Put(t1)
	t2 := a.Get(NewCHW(4, 3, 2)) // same volume, different dims
	if t2 != t1 {
		t.Error("same-volume Get after Put must return the recycled tensor")
	}
	if !t2.Shape.Equal(NewCHW(4, 3, 2)) {
		t.Errorf("recycled tensor shape = %v, want [4x3x2]", t2.Shape)
	}
}

func TestArenaKeysByVolume(t *testing.T) {
	a := NewArena()
	small := a.Get(NewVec(8))
	a.Put(small)
	big := a.Get(NewVec(16))
	if big == small {
		t.Error("different volumes must not share buffers")
	}
	if len(big.Data) != 16 {
		t.Errorf("len = %d, want 16", len(big.Data))
	}
}

func TestArenaSlices(t *testing.T) {
	a := NewArena()
	s := a.GetSlice(100)
	s[0] = 42
	a.PutSlice(s)
	s2 := a.GetSlice(100)
	if &s2[0] != &s[0] {
		t.Error("GetSlice must recycle a same-size buffer")
	}
	q := a.GetSliceI8(100)
	a.PutSliceI8(q)
	if q2 := a.GetSliceI8(100); &q2[0] != &q[0] {
		t.Error("GetSliceI8 must recycle a same-size buffer")
	}
	acc := a.GetSliceI32(100)
	a.PutSliceI32(acc)
	if acc2 := a.GetSliceI32(100); &acc2[0] != &acc[0] {
		t.Error("GetSliceI32 must recycle a same-size buffer")
	}
	// The lists are kept apart by kind: a buffer of one kind never
	// answers a Get of another, even at the same length.
	a.PutSliceI8(q)
	a.GetSliceI32(100)
	if a.FreeBuffers() != 1 {
		t.Errorf("FreeBuffers = %d after an int32 Get over a free int8 buffer, want 1", a.FreeBuffers())
	}
	a.GetSliceI8(100)
	if a.FreeBuffers() != 0 {
		t.Errorf("FreeBuffers = %d after draining, want 0", a.FreeBuffers())
	}
}

func TestArenaCapsRetention(t *testing.T) {
	a := NewArena()
	for i := 0; i < 3*maxFreePerSize; i++ {
		a.Put(New(NewVec(7)))
		a.PutSlice(make([]float32, 9))
		a.PutSliceI8(make([]int8, 9))
		a.PutSliceI32(make([]int32, 9))
	}
	if got := a.FreeBuffers(); got != 4*maxFreePerSize {
		t.Errorf("FreeBuffers = %d, want %d (cap per size class)", got, 4*maxFreePerSize)
	}
}

func TestNilArenaAllocates(t *testing.T) {
	var a *Arena
	tt := a.Get(NewCHW(1, 2, 2))
	if len(tt.Data) != 4 {
		t.Fatalf("nil arena Get: len = %d, want 4", len(tt.Data))
	}
	a.Put(tt) // must not panic
	if s := a.GetSlice(5); len(s) != 5 {
		t.Fatalf("nil arena GetSlice: len = %d, want 5", len(s))
	}
	a.PutSlice(make([]float32, 5))
	if s := a.GetSliceI8(5); len(s) != 5 {
		t.Fatalf("nil arena GetSliceI8: len = %d, want 5", len(s))
	}
	a.PutSliceI8(make([]int8, 5))
	if s := a.GetSliceI32(5); len(s) != 5 {
		t.Fatalf("nil arena GetSliceI32: len = %d, want 5", len(s))
	}
	a.PutSliceI32(make([]int32, 5))
	if a.FreeBuffers() != 0 {
		t.Error("nil arena retains nothing")
	}
}

func TestArenaZeroVolume(t *testing.T) {
	a := NewArena()
	if s := a.GetSlice(0); s == nil || len(s) != 0 {
		t.Fatal("zero-length GetSlice")
	}
	if s := a.GetSliceI8(0); s == nil || len(s) != 0 {
		t.Fatal("zero-length GetSliceI8")
	}
	if s := a.GetSliceI32(0); s == nil || len(s) != 0 {
		t.Fatal("zero-length GetSliceI32")
	}
	// None of these may panic or retain.
	a.PutSlice(nil)
	a.PutSlice([]float32{})
	a.PutSliceI8(nil)
	a.PutSliceI8([]int8{})
	a.PutSliceI32(nil)
	a.PutSliceI32([]int32{})
	a.Put(nil)
	a.Put(New(NewVec(0)))
	if a.FreeBuffers() != 0 {
		t.Error("zero-length buffers must not be retained")
	}
}
