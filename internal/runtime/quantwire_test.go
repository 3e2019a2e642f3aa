package runtime

import (
	"bytes"
	"encoding/binary"
	"math"
	"net"
	"slices"
	"testing"
	"time"

	"dnnjps/internal/engine"
	"dnnjps/internal/netsim"
	"dnnjps/internal/obs"
	"dnnjps/internal/tensor"
)

// quantTestModel is testModel calibrated and switched to int8 mode.
func quantTestModel(t *testing.T) *engine.Model { return quantized(t, testModel(t)) }

// quantized calibrates m on synthetic inputs and switches it to int8.
func quantized(t *testing.T, m *engine.Model) *engine.Model {
	t.Helper()
	cal, err := m.CalibrateSynthetic(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Quantize(cal); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestQuantTensorWireRoundTrip(t *testing.T) {
	q := tensor.NewQ(tensor.NewCHW(3, 4, 5), tensor.QParams{Scale: 0.031, Zero: -7})
	for i := range q.Data {
		q.Data[i] = int8(i*11 - 64)
	}
	var buf bytes.Buffer
	sumW, err := writeTensorSum(&buf, boundary{Q: q}, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, sumR, err := readTensorSum(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := p.Q
	if got == nil {
		t.Fatal("decoded as float32, want quantized")
	}
	if sumW != sumR {
		t.Fatalf("writer CRC %08x != reader CRC %08x", sumW, sumR)
	}
	if !got.Shape.Equal(q.Shape) || got.QParams != q.QParams {
		t.Fatalf("header mismatch: %v/%+v vs %v/%+v", got.Shape, got.QParams, q.Shape, q.QParams)
	}
	for i := range q.Data {
		if got.Data[i] != q.Data[i] {
			t.Fatalf("code %d corrupted: %d vs %d", i, got.Data[i], q.Data[i])
		}
	}
}

// writeSizes is a bytes.Buffer that records the length of every Write
// call: what a shaper or fault injector under the codec sees.
type writeSizes struct {
	bytes.Buffer
	sizes []int
}

func (w *writeSizes) Write(p []byte) (int, error) {
	w.sizes = append(w.sizes, len(p))
	return w.Buffer.Write(p)
}

// TestLegacyTensorFrameBitIdentical pins the tensor frame layout
// against hand-built bytes. float32: bare rank byte, little-endian
// dims, little-endian IEEE-754 payload — no dtype byte, no mapping.
// int8: rank byte flagged with quantTensorFlag, little-endian scale
// bits, zero-point byte, dims, one byte per code. The encoder's Write
// calls are pinned too — the header, then the payload in wireChunkSize
// pieces, the last one ragged — and the decoder must consume exactly
// the frame and return the tensor that was encoded.
func TestLegacyTensorFrameBitIdentical(t *testing.T) {
	le32 := binary.LittleEndian.AppendUint32
	floatFrame := func(tt *tensor.Tensor) []byte {
		b := le32([]byte{1}, uint32(len(tt.Data)))
		for _, v := range tt.Data {
			b = le32(b, math.Float32bits(v))
		}
		return b
	}
	small := mustVec(3, 1.5, -2.25, 0)
	big := tensor.New(tensor.NewVec(20000)) // 80 000 payload bytes: one full chunk and a ragged one
	for i := range big.Data {
		big.Data[i] = float32(i)*0.37 - 1000
	}
	q := mustQVec(4, 1, -2, 127, -128) // scale 0.5, zero -3
	qFrame := le32([]byte{quantTensorFlag | 1}, math.Float32bits(0.5))
	qFrame = append(le32(append(qFrame, 0xFD), 4), 0x01, 0xFE, 0x7F, 0x80)

	for _, c := range []struct {
		name   string
		tt     *tensor.Tensor
		q      *tensor.QTensor
		want   []byte
		writes []int
	}{
		{"float32", small, nil, floatFrame(small), []int{5, 12}},
		{"float32 past one chunk", big, nil, floatFrame(big), []int{5, 65536, 14464}},
		{"int8", nil, q, qFrame, []int{10, 4}},
	} {
		var got writeSizes
		if _, err := writeTensorSum(&got, boundary{T: c.tt, Q: c.q}, 0); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !bytes.Equal(got.Bytes(), c.want) {
			t.Errorf("%s: frame bytes changed:\n got %x\nwant %x", c.name, got.Bytes(), c.want)
		}
		if !slices.Equal(got.sizes, c.writes) {
			t.Errorf("%s: Write calls of %v bytes, want %v", c.name, got.sizes, c.writes)
		}
		r := bytes.NewReader(c.want)
		p, _, err := readTensorSum(r, 0)
		if err != nil {
			t.Fatalf("%s: decode: %v", c.name, err)
		}
		dt, dq := p.T, p.Q
		if r.Len() != 0 {
			t.Errorf("%s: decode left %d of the frame's bytes unread", c.name, r.Len())
		}
		if c.q != nil {
			if dq == nil || !dq.Shape.Equal(c.q.Shape) || dq.QParams != c.q.QParams || !slices.Equal(dq.Data, c.q.Data) {
				t.Errorf("%s: decoded %+v, want %+v", c.name, dq, c.q)
			}
		} else if dt == nil || !dt.Shape.Equal(c.tt.Shape) || !slices.Equal(dt.Data, c.tt.Data) {
			t.Errorf("%s: decoded tensor differs from the encoded one", c.name)
		}
	}
}

// TestQuantRequestWireBytes checks the size formula against real
// encoded frames and the acceptance bar: a quantized boundary ships in
// at most 0.26x the float32 request bytes (4x payload shrink, small
// constant header overhead).
func TestQuantRequestWireBytes(t *testing.T) {
	shape := tensor.NewCHW(16, 8, 8) // a realistic small boundary
	fp := tensor.New(shape)
	q := tensor.NewQ(shape, tensor.QParams{Scale: 0.02, Zero: 3})

	var fpBuf, qBuf bytes.Buffer
	if err := writeJob(&fpBuf, 1, []boundary{{Node: 2, T: fp}}); err != nil {
		t.Fatal(err)
	}
	if err := writeJob(&qBuf, 1, []boundary{{Node: 2, Q: q}}); err != nil {
		t.Fatal(err)
	}
	if got, want := fpBuf.Len(), RequestWireBytes(shape); got != want {
		t.Errorf("fp32 request: %d bytes on the wire, formula says %d", got, want)
	}
	if got, want := qBuf.Len(), QuantRequestWireBytes(shape); got != want {
		t.Errorf("quant request: %d bytes on the wire, formula says %d", got, want)
	}
	ratio := float64(qBuf.Len()) / float64(fpBuf.Len())
	t.Logf("quant/fp32 wire bytes: %d/%d = %.4f", qBuf.Len(), fpBuf.Len(), ratio)
	if ratio > 0.26 {
		t.Errorf("quant request is %.4fx the fp32 bytes, want <= 0.26x", ratio)
	}
}

// TestQuantFrameCorruptionDetected: flipping any single payload byte
// of a quantized request must fail the CRC, same as fp32 frames.
func TestQuantFrameCorruptionDetected(t *testing.T) {
	q := tensor.NewQ(tensor.NewVec(64), tensor.QParams{Scale: 0.1, Zero: 0})
	for i := range q.Data {
		q.Data[i] = int8(i - 32)
	}
	var buf bytes.Buffer
	if err := writeJob(&buf, 5, []boundary{{Node: 1, Q: q}}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := readJobBody(bytes.NewReader(raw[1:])); err != nil {
		t.Fatalf("uncorrupted frame rejected: %v", err)
	}
	corrupt := append([]byte(nil), raw...)
	corrupt[len(corrupt)-10] ^= 0x40 // a payload byte before the trailer
	if _, err := readJobBody(bytes.NewReader(corrupt[1:])); err == nil {
		t.Fatal("corrupted quant frame decoded without error")
	}
}

// TestQuantRunJobEveryCutMatchesLocalForward is the quantized sibling
// of TestRunJobEveryCutMatchesLocalForward: with client and server
// sharing one quantized model, every cut position must return the
// local int8 forward's class — the boundary survives the int8 wire
// round trip because the client quantizes it under the same calibrated
// mapping the frame ships.
func TestQuantRunJobEveryCutMatchesLocalForward(t *testing.T) {
	m := quantTestModel(t)
	cl := startPair(t, m, netsim.WiFi)
	in := input(1)
	want, err := m.Forward(in.Clone())
	if err != nil {
		t.Fatal(err)
	}
	wantClass := engine.Argmax(want)
	for cut := 0; cut < cl.Units(); cut++ {
		res, err := cl.RunJob(cut, cut, in.Clone())
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if res.Class != wantClass {
			t.Errorf("cut %d: class %d, local quant forward says %d", cut, res.Class, wantClass)
		}
	}
}

// TestQuantUploadBytesCounted: the client's uplink byte accounting
// must reflect the quantized frame size, and a quantized run must ship
// ~4x fewer bytes than the same cut in fp32.
func TestQuantUploadBytesCounted(t *testing.T) {
	run := func(m *engine.Model) int64 {
		o := NewObs(obs.NewTracer(0), obs.NewMetrics())
		cConn, sConn := net.Pipe()
		srv := NewServer(m)
		t.Cleanup(srv.Close)
		go func() {
			defer sConn.Close()
			_ = srv.HandleConn(sConn)
		}()
		t.Cleanup(func() { cConn.Close() })
		cl := NewClient(cConn, m, netsim.WiFi, 1e-6).WithObs(o)
		if _, err := cl.RunJob(0, 0, input(2)); err != nil {
			t.Fatal(err)
		}
		// The writer goroutine records BytesUp just after flushing, which
		// can race the reply's arrival; poll until the counter lands.
		deadline := time.Now().Add(5 * time.Second)
		for o.BytesUp.Value() == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		return o.BytesUp.Value()
	}
	fpBytes := run(testModel(t))
	qBytes := run(quantTestModel(t))
	ratio := float64(qBytes) / float64(fpBytes)
	t.Logf("uplink bytes: quant %d vs fp32 %d (%.4fx)", qBytes, fpBytes, ratio)
	if ratio > 0.26 {
		t.Errorf("quant run shipped %.4fx the fp32 bytes, want <= 0.26x", ratio)
	}
}
