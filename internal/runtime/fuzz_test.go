package runtime

import (
	"bytes"
	"testing"

	"dnnjps/internal/tensor"
)

// FuzzReadTensor drives the wire decoder with arbitrary bytes: it must
// never panic and never allocate absurd buffers; on valid frames it
// must round-trip. Seed corpus covers the interesting shapes; run
// `go test -fuzz=FuzzReadTensor ./internal/runtime` for a deep fuzz.
func FuzzReadTensor(f *testing.F) {
	// A valid 1-D tensor frame.
	var valid bytes.Buffer
	_ = writeTensor(&valid, mustVec(3, 1, 2, 3))
	f.Add(valid.Bytes())
	// A valid quantized frame (flagged rank byte + affine mapping).
	var qvalid bytes.Buffer
	_, _ = writeQTensorSum(&qvalid, mustQVec(3, 1, -2, 3), 0)
	f.Add(qvalid.Bytes())
	// Truncations and garbage.
	f.Add(valid.Bytes()[:3])
	f.Add(qvalid.Bytes()[:4])
	f.Add([]byte{0})
	f.Add([]byte{9, 1, 2, 3})
	f.Add([]byte{1, 0xFF, 0xFF, 0xFF, 0x7F})          // giant dim
	f.Add([]byte{0x81, 0, 0, 0x80, 0x7F, 0, 1, 0, 0}) // quant frame, +Inf scale
	f.Add([]byte{0x80})                               // quant flag with rank 0
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		tt, qt, err := readTensor(bytes.NewReader(data))
		if err != nil {
			return // rejected input is fine; panics are not
		}
		// Successful parses must be internally consistent and re-encode.
		var buf bytes.Buffer
		if qt != nil {
			if qt.Shape.Elems() != len(qt.Data) {
				t.Fatalf("decoded qtensor inconsistent: %v vs %d", qt.Shape, len(qt.Data))
			}
			if _, err := writeQTensorSum(&buf, qt, 0); err != nil {
				t.Fatalf("re-encode quant: %v", err)
			}
			return
		}
		if tt.Shape.Elems() != len(tt.Data) {
			t.Fatalf("decoded tensor inconsistent: %v vs %d", tt.Shape, len(tt.Data))
		}
		if err := writeTensor(&buf, tt); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
	})
}

// FuzzHandleConn drives the whole server loop with arbitrary frames.
func FuzzHandleConn(f *testing.F) {
	var infer bytes.Buffer
	_ = writeInferRequest(&infer, &inferRequest{JobID: 1, Cut: 0, Tensor: mustVec(2, 1, 2)})
	f.Add(infer.Bytes())
	var qinfer bytes.Buffer
	_ = writeInferRequest(&qinfer, &inferRequest{JobID: 3, Cut: 0, Quant: mustQVec(2, 5, -5)})
	f.Add(qinfer.Bytes())
	var ping bytes.Buffer
	_ = writePing(&ping, 8)
	f.Add(ping.Bytes())
	var set bytes.Buffer
	_ = writeInferSetRequest(&set, &inferSetRequest{
		JobID:   2,
		Nodes:   []int32{0},
		Tensors: []*tensor.Tensor{mustVec(2, 1, 2)},
	})
	f.Add(set.Bytes())
	f.Add([]byte{0xAB, 0xCD})

	f.Fuzz(func(t *testing.T, data []byte) {
		srv := NewServer(testModel(t))
		t.Cleanup(srv.Close)
		conn := &rwBuffer{in: bytes.NewReader(data)}
		_ = srv.HandleConn(conn) // must not panic
	})
}

// FuzzReadInferRequest drives the hand-rolled request decoder the
// server read loop uses: arbitrary bodies must be rejected cleanly,
// valid bodies must round-trip through the writer.
func FuzzReadInferRequest(f *testing.F) {
	var valid bytes.Buffer
	_ = writeInferRequest(&valid, &inferRequest{JobID: 7, Cut: 2, Tensor: mustVec(3, 1, 2, 3)})
	f.Add(valid.Bytes()[1:]) // body = frame minus the type byte
	var qvalid bytes.Buffer
	_ = writeInferRequest(&qvalid, &inferRequest{JobID: 8, Cut: 1, Quant: mustQVec(3, 1, -2, 3)})
	f.Add(qvalid.Bytes()[1:])
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Add(bytes.Repeat([]byte{0xFF}, 32))

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := readInferRequestBody(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := writeInferRequest(&buf, req); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		got, err := readInferRequestBody(bytes.NewReader(buf.Bytes()[1:]))
		if err != nil {
			t.Fatalf("decode re-encoded request: %v", err)
		}
		if got.JobID != req.JobID || got.Cut != req.Cut {
			t.Fatalf("round trip mismatch: %+v vs %+v", got, req)
		}
		switch {
		case req.Quant != nil:
			if got.Quant == nil || !got.Quant.Shape.Equal(req.Quant.Shape) || got.Quant.QParams != req.Quant.QParams {
				t.Fatalf("quant round trip mismatch: %+v vs %+v", got, req)
			}
		default:
			if got.Tensor == nil || !got.Tensor.Shape.Equal(req.Tensor.Shape) {
				t.Fatalf("round trip mismatch: %+v vs %+v", got, req)
			}
		}
	})
}

// FuzzReadInferSetRequest drives the boundary-set decoder: arbitrary
// bodies — a zero or oversized count and a quantized tensor among them
// — must be rejected cleanly, valid bodies must round-trip through the
// writer with the size setWireBytes predicts.
func FuzzReadInferSetRequest(f *testing.F) {
	var valid bytes.Buffer
	_ = writeInferSetRequest(&valid, &inferSetRequest{
		JobID:   7,
		Nodes:   []int32{4, 2},
		Tensors: []*tensor.Tensor{mustVec(3, 1, 2, 3), mustVec(2, -1, 5)},
	})
	f.Add(valid.Bytes()[1:]) // body = frame minus the type byte
	var qbody bytes.Buffer   // one pair whose tensor is a quantized frame
	qbody.Write([]byte{7, 0, 0, 0, 1, 0, 4, 0, 0, 0})
	_, _ = writeQTensorSum(&qbody, mustQVec(3, 1, -2, 3), 0)
	for _, bad := range [][]byte{
		{7, 0, 0, 0, 0, 0},  // count 0
		{7, 0, 0, 0, 65, 0}, // count 65 > maxBoundaryTensors
		qbody.Bytes(),
		valid.Bytes()[1:12], // truncated
		{},
	} {
		if _, err := readInferSetRequestBody(bytes.NewReader(bad)); err == nil {
			f.Fatalf("body %x decoded, want a rejection", bad)
		}
		f.Add(bad)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := readInferSetRequestBody(bytes.NewReader(data))
		if err != nil {
			return
		}
		if n := len(req.Nodes); n == 0 || n > maxBoundaryTensors || n != len(req.Tensors) {
			t.Fatalf("decoded %d nodes, %d tensors", n, len(req.Tensors))
		}
		var buf bytes.Buffer
		if err := writeInferSetRequest(&buf, req); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if buf.Len() != setWireBytes(req) {
			t.Fatalf("frame is %d bytes, setWireBytes says %d", buf.Len(), setWireBytes(req))
		}
		got, err := readInferSetRequestBody(bytes.NewReader(buf.Bytes()[1:]))
		if err != nil {
			t.Fatalf("decode re-encoded request: %v", err)
		}
		if got.JobID != req.JobID || len(got.Nodes) != len(req.Nodes) {
			t.Fatalf("round trip mismatch: %+v vs %+v", got, req)
		}
		for i := range req.Nodes {
			if got.Nodes[i] != req.Nodes[i] || !got.Tensors[i].Shape.Equal(req.Tensors[i].Shape) {
				t.Fatalf("pair %d: round trip mismatch", i)
			}
		}
	})
}

// FuzzReadInferReply drives the client demultiplexer's reply decoder.
func FuzzReadInferReply(f *testing.F) {
	var valid bytes.Buffer
	_ = writeInferReply(&valid, &inferReply{JobID: 3, Class: -1, CloudNs: 123456})
	f.Add(valid.Bytes()[1:])
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7})
	f.Add(bytes.Repeat([]byte{0xFF}, 16))

	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := readInferReplyBody(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := writeInferReply(&buf, &rep); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		got, err := readInferReplyBody(bytes.NewReader(buf.Bytes()[1:]))
		if err != nil {
			t.Fatalf("decode re-encoded reply: %v", err)
		}
		if got != rep {
			t.Fatalf("round trip mismatch: %+v vs %+v", got, rep)
		}
	})
}

// mustVec builds a small 1-D tensor for frame seeds.
func mustVec(n int, vals ...float32) *tensor.Tensor {
	t := tensor.New(tensor.NewVec(n))
	copy(t.Data, vals)
	return t
}

// mustQVec builds a small 1-D quantized tensor for frame seeds.
func mustQVec(n int, codes ...int8) *tensor.QTensor {
	q := tensor.NewQ(tensor.NewVec(n), tensor.QParams{Scale: 0.5, Zero: -3})
	copy(q.Data, codes)
	return q
}
