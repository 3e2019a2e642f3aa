package runtime

import (
	"bytes"
	"encoding/binary"
	"math"
	"net"
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
	sumW, err := writeQTensorSum(&buf, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, got, sumR, err := readTensorSum(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
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

// TestLegacyTensorFrameBitIdentical pins the float32 frame layout:
// bare rank byte, little-endian dims, little-endian IEEE-754 payload —
// no dtype byte, no mapping. A pre-quantization peer's frames are
// byte-for-byte what the current encoder emits.
func TestLegacyTensorFrameBitIdentical(t *testing.T) {
	tt := mustVec(3, 1.5, -2.25, 0)
	var want bytes.Buffer
	want.WriteByte(1) // rank
	var b4 [4]byte
	binary.LittleEndian.PutUint32(b4[:], 3) // dim
	want.Write(b4[:])
	for _, v := range tt.Data {
		binary.LittleEndian.PutUint32(b4[:], math.Float32bits(v))
		want.Write(b4[:])
	}
	var got bytes.Buffer
	if err := writeTensor(&got, tt); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("frame bytes changed:\n got %x\nwant %x", got.Bytes(), want.Bytes())
	}
	dec, q, err := readTensor(bytes.NewReader(want.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if q != nil {
		t.Fatal("legacy frame decoded as quantized")
	}
	for i := range tt.Data {
		if dec.Data[i] != tt.Data[i] {
			t.Fatalf("payload %d: %v vs %v", i, dec.Data[i], tt.Data[i])
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
