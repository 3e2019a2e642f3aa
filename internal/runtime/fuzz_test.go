package runtime

import (
	"bytes"
	"testing"

	"dnnjps/internal/tensor"
)

// FuzzReadTensor drives the wire decoder with arbitrary bytes: it must
// never panic and never allocate absurd buffers; on valid frames it
// must round-trip, re-encoding to exactly the bytes it consumed. Seed
// corpus covers the interesting shapes; run
// `go test -fuzz=FuzzReadTensor ./internal/runtime` for a deep fuzz.
func FuzzReadTensor(f *testing.F) {
	// A valid 1-D tensor frame.
	var valid bytes.Buffer
	_, _ = writeTensorSum(&valid, boundary{T: mustVec(3, 1, 2, 3)}, 0)
	f.Add(valid.Bytes())
	// A valid quantized frame (flagged rank byte + affine mapping).
	var qvalid bytes.Buffer
	_, _ = writeTensorSum(&qvalid, boundary{Q: mustQVec(3, 1, -2, 3)}, 0)
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
		r := bytes.NewReader(data)
		p, _, err := readTensorSum(r, 0)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		tt, qt := p.T, p.Q
		consumed := data[:len(data)-r.Len()]
		// Successful parses must be internally consistent and re-encode.
		var buf bytes.Buffer
		if qt != nil {
			if qt.Shape.Elems() != len(qt.Data) {
				t.Fatalf("decoded qtensor inconsistent: %v vs %d", qt.Shape, len(qt.Data))
			}
			if _, err := writeTensorSum(&buf, p, 0); err != nil {
				t.Fatalf("re-encode quant: %v", err)
			}
			if !bytes.Equal(buf.Bytes(), consumed) {
				t.Fatalf("re-encoded quant frame differs:\n got %x\nwant %x", buf.Bytes(), consumed)
			}
			return
		}
		if tt.Shape.Elems() != len(tt.Data) {
			t.Fatalf("decoded tensor inconsistent: %v vs %d", tt.Shape, len(tt.Data))
		}
		if _, err := writeTensorSum(&buf, p, 0); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), consumed) {
			t.Fatalf("re-encoded frame differs:\n got %x\nwant %x", buf.Bytes(), consumed)
		}
	})
}

// FuzzHandleConn drives the whole server loop with arbitrary frames.
// The committed seed_infer is a retired type-1 request: a rejected
// connection, never a panic.
func FuzzHandleConn(f *testing.F) {
	for _, pairs := range [][]boundary{
		{{Node: 0, T: mustVec(2, 1, 2)}},
		{{Node: 0, Q: mustQVec(2, 5, -5)}},
	} {
		var job bytes.Buffer
		_ = writeJob(&job, 1, pairs)
		f.Add(job.Bytes())
	}
	var ping bytes.Buffer
	_ = writePing(&ping, 8)
	f.Add(ping.Bytes())
	var set bytes.Buffer
	_ = writeJob(&set, 2, []boundary{{Node: 0, T: mustVec(2, 1, 2)}, {Node: 1, Q: mustQVec(2, 5, -5)}})
	f.Add(set.Bytes())
	f.Add([]byte{0xAB, 0xCD})

	f.Fuzz(func(t *testing.T, data []byte) {
		srv := NewServer(testModel(t))
		t.Cleanup(srv.Close)
		conn := &rwBuffer{in: bytes.NewReader(data)}
		_ = srv.HandleConn(conn) // must not panic
	})
}

// FuzzReadInferRequest and FuzzReadInferSetRequest drive readJobBody,
// the server's one request decoder, with one property (fuzzReadJob)
// from two committed corpora: line jobs, one pair each, and sets. The
// first corpus also holds two bodies of the retired type-1 request,
// which must be rejected cleanly.
func FuzzReadInferRequest(f *testing.F) {
	for _, p := range []boundary{
		{Node: 2, T: mustVec(3, 1, 2, 3)},
		{Node: 1, Q: mustQVec(3, 1, -2, 3)},
	} {
		var valid bytes.Buffer
		_ = writeJob(&valid, 7, []boundary{p})
		f.Add(valid.Bytes()[1:]) // body = frame minus the type byte
	}
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Add(bytes.Repeat([]byte{0xFF}, 32))
	fuzzReadJob(f)
}

// FuzzReadInferSetRequest is FuzzReadInferRequest's twin, from sets.
func FuzzReadInferSetRequest(f *testing.F) {
	var valid bytes.Buffer
	_ = writeJob(&valid, 7, []boundary{{Node: 4, T: mustVec(3, 1, 2, 3)}, {Node: 2, T: mustVec(2, -1, 5)}})
	f.Add(valid.Bytes()[1:]) // body = frame minus the type byte
	var quant bytes.Buffer   // one pair whose tensor is int8
	_ = writeJob(&quant, 7, []boundary{{Node: 4, Q: mustQVec(3, 1, -2, 3)}})
	f.Add(quant.Bytes()[1:])
	for _, bad := range [][]byte{
		{7, 0, 0, 0, 0, 0},  // count 0
		{7, 0, 0, 0, 65, 0}, // count 65 > maxBoundaryTensors
		valid.Bytes()[1:12], // truncated
		{},
	} {
		if _, err := readJobBody(bytes.NewReader(bad)); err == nil {
			f.Fatalf("body %x decoded, want a rejection", bad)
		}
		f.Add(bad)
	}
	fuzzReadJob(f)
}

// fuzzReadJob is the decoder's property: arbitrary bodies are rejected
// cleanly, and a body that decodes round-trips through writeJob — to
// exactly the bytes the decoder consumed, at the size jobWireBytes
// predicts, with every pair's node, dtype, shape and affine mapping
// intact.
func fuzzReadJob(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		req, err := readJobBody(r)
		if err != nil {
			return
		}
		if n := len(req.Pairs); n == 0 || n > maxBoundaryTensors {
			t.Fatalf("decoded %d pairs", n)
		}
		var buf bytes.Buffer
		if err := writeJob(&buf, req.JobID, req.Pairs); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if buf.Len() != jobWireBytes(req.Pairs) {
			t.Fatalf("frame is %d bytes, jobWireBytes says %d", buf.Len(), jobWireBytes(req.Pairs))
		}
		if consumed := data[:len(data)-r.Len()]; !bytes.Equal(buf.Bytes()[1:], consumed) {
			t.Fatalf("re-encoded body differs:\n got %x\nwant %x", buf.Bytes()[1:], consumed)
		}
		got, err := readJobBody(bytes.NewReader(buf.Bytes()[1:]))
		if err != nil {
			t.Fatalf("decode re-encoded request: %v", err)
		}
		if got.JobID != req.JobID || len(got.Pairs) != len(req.Pairs) {
			t.Fatalf("round trip mismatch: job %d with %d pairs vs %d with %d", got.JobID, len(got.Pairs), req.JobID, len(req.Pairs))
		}
		for i, want := range req.Pairs {
			p := got.Pairs[i]
			if (p.T == nil) == (p.Q == nil) || p.Node != want.Node || (p.Q == nil) != (want.Q == nil) {
				t.Fatalf("pair %d: node %d, float32 %v vs node %d, float32 %v", i, p.Node, p.T != nil, want.Node, want.T != nil)
			}
			switch {
			case want.Q != nil:
				if !p.Q.Shape.Equal(want.Q.Shape) || p.Q.QParams != want.Q.QParams {
					t.Fatalf("pair %d: int8 %v/%+v vs %v/%+v", i, p.Q.Shape, p.Q.QParams, want.Q.Shape, want.Q.QParams)
				}
			case !p.T.Shape.Equal(want.T.Shape):
				t.Fatalf("pair %d: float32 %v vs %v", i, p.T.Shape, want.T.Shape)
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
