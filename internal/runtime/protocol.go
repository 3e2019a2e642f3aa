// Package runtime is the executable offloading system: a cloud-side
// server and a mobile-side client that really run partitioned
// inferences over a net.Conn, mirroring the paper's PyTorch + gRPC
// testbed. The client computes the mobile prefix with the real engine,
// serializes the boundary tensor, ships it over a bandwidth-shaped
// link, and the server finishes the inference and returns the class
// plus its measured compute time (the paper's tc field, used to
// separate communication delay from cloud delay).
//
// The wire path is allocation-free in steady state: frame headers are
// encoded and decoded with explicit little-endian byte manipulation
// through pooled scratch buffers (no reflection-based encoding/binary
// round trips), and a tensor's payload is its own memory, written from
// it and read straight back into it.
package runtime

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"

	"dnnjps/internal/tensor"
)

// wireCRC is the table for the CRC-32C (Castagnoli) trailer appended
// to every job frame and reply. Frame drops on
// a lossy link can desynchronize the byte stream mid-payload, and a
// shifted stream often still parses as a structurally valid message —
// without a checksum the server would run inference on garbage and
// return a wrong class as a "successful" reply. A trailer mismatch is
// instead a connection error, which the fault-tolerant runner turns
// into a resubmission. The sum covers every body byte after the type
// byte; pings (zero-filled calibration payloads) are exempt.
var wireCRC = crc32.MakeTable(crc32.Castagnoli)

// Message types on the wire. Every request is a job frame; type 1 is
// reply-only, and a server fails a connection that sends it ("unknown
// message type 1").
const (
	msgReply = byte(1) // server -> client: a job's class and the server's stage times
	msgPing  = byte(2) // client -> server: calibration payload; server -> client: its one-byte acknowledgment
	msgJob   = byte(3) // client -> server: a job's boundary, (node, tensor) pairs
	msgHello = byte(4) // client -> server: tenant handshake (no reply)
)

// maxBoundaryTensors bounds a job frame's pair count.
const maxBoundaryTensors = 64

// Reply flag bits (inferReply.Flags). The server piggybacks its
// admission-control state on every reply so clients learn about cloud
// saturation without a separate control channel.
const (
	// replyFlagBackpressure: the server's global queue is past its hint
	// watermark — the client should shift cuts toward local compute
	// (see Runner's hint-driven re-planning).
	replyFlagBackpressure = uint8(1 << 0)
	// replyFlagShed: the job was NOT executed; admission control dropped
	// it at the overload watermark. Class is -1 and the caller owns
	// recovery (the Runner finishes shed jobs on the mobile engine).
	replyFlagShed = uint8(1 << 1)
)

// maxTenantLen bounds the tenant ID carried by a hello frame.
const maxTenantLen = 64

const maxTensorBytes = 256 << 20 // defensive cap against corrupt frames

const maxTensorRank = 4

// quantTensorFlag marks an int8 tensor frame: the leading byte is
// quantTensorFlag|rank where a float32 frame has the bare rank. After
// it come the affine mapping (float32 scale + int8 zero point), the
// dims, and one byte per element instead of four — the 4x payload
// shrink that makes quantized cuts cheap to ship.
const quantTensorFlag = byte(0x80)

// wireChunkSize is the size of the pooled scratch buffers the codecs
// stage headers through, and of the pieces a tensor's payload is
// written and read in.
const wireChunkSize = 64 << 10

var wireBufs = sync.Pool{
	New: func() any {
		b := make([]byte, wireChunkSize)
		return &b
	},
}

// boundary is one (node, activation) pair of a job frame: the output
// of graph node Node, float32 (T) or int8 (Q), exactly one of which is
// set. The server expands Q into T at decode, so past the read loop a
// pair is float32.
type boundary struct {
	Node int
	T    *tensor.Tensor
	Q    *tensor.QTensor
}

// shape is the shape of the pair's tensor, whichever its type.
func (p boundary) shape() tensor.Shape {
	if p.Q != nil {
		return p.Q.Shape
	}
	return p.T.Shape
}

// jobRequest is one job on the wire: the boundary the mobile side left,
// as (node, tensor) pairs — every tensor the cloud side consumes (the
// Alg. 3 cut set), and for a line cut the one at its unit's exit. Cut
// is not on the wire: it is the unit a one-pair boundary at a unit exit
// is cut after, -1 for a true set (lineProgram.cutOf, on the server at
// decode). one backs Pairs for a line job, so its single pair costs no
// allocation of its own.
type jobRequest struct {
	JobID uint32
	Cut   int
	Pairs []boundary
	one   [1]boundary
}

// inferReply is the server's answer: predicted class plus the
// server's own per-stage metadata — measured compute time and how long
// the request sat in the worker-pool queue before a worker picked it
// up, both in nanoseconds. The client subtracts both from the round
// trip to isolate the pure communication delay (the paper's td − tc),
// and the queue term tells a degraded run apart: a saturated server
// pool shows up as queue time, a degraded link as communication time.
type inferReply struct {
	JobID   uint32
	Class   int32
	CloudNs int64
	QueueNs int64
	Flags   uint8 // replyFlag* bits: server admission-control state
}

// ReplyWireBytes is the full on-the-wire size of a reply frame: type
// byte + 25-byte body (JobID, Class, CloudNs, QueueNs, Flags) +
// CRC-32C trailer. Exported so the profile layer's duplicated copy
// (profile.ReplyBytes, which prices the downlink leg of a cut) can be
// pinned to it by test.
const ReplyWireBytes = 1 + 25 + 4

const replyWireBytes = ReplyWireBytes

// jobOnceBytes is what a job frame carries once whatever its boundary:
// type byte, job ID, pair count and the CRC-32C trailer.
const jobOnceBytes = 1 + 4 + 2 + 4

// pairWireBytes sizes one pair of a job frame: node ID, rank byte,
// dims and the payload — four bytes an element, or one plus the 5-byte
// affine mapping when int8.
func pairWireBytes(s tensor.Shape, quant bool) int {
	if quant {
		return 4 + 1 + 5 + 4*s.Rank() + s.Elems()
	}
	return 4 + 1 + 4*s.Rank() + 4*s.Elems()
}

// RequestWireBytes returns the exact on-the-wire size of a job frame
// carrying one float32 boundary tensor of the given shape — a line
// cut's upload, the byte count the bandwidth shaper paces, used to
// predict the paper's g(x) for a live run.
func RequestWireBytes(s tensor.Shape) int {
	return jobOnceBytes + pairWireBytes(s, false)
}

// QuantRequestWireBytes is RequestWireBytes for a quantized boundary
// tensor: the header grows by the 5-byte affine mapping, the payload
// shrinks to one byte per element.
func QuantRequestWireBytes(s tensor.Shape) int {
	return jobOnceBytes + pairWireBytes(s, true)
}

// jobWireBytes sizes a concrete job frame for byte accounting.
func jobWireBytes(pairs []boundary) int {
	n := jobOnceBytes
	for _, p := range pairs {
		n += pairWireBytes(p.shape(), p.Q != nil)
	}
	return n
}

// writeJob encodes a job frame: type, job ID, pair count, then each
// pair's node ID and tensor, then the CRC-32C over all of it. jobID is
// a parameter, not the request's: a forwarding stage sends a job on
// under its slot index (nextHop.handOff).
func writeJob(w io.Writer, jobID uint32, pairs []boundary) error {
	bp := wireBufs.Get().(*[]byte)
	defer wireBufs.Put(bp)
	b := *bp
	b[0] = msgJob
	binary.LittleEndian.PutUint32(b[1:], jobID)
	binary.LittleEndian.PutUint16(b[5:], uint16(len(pairs)))
	sum := crc32.Update(0, wireCRC, b[1:7])
	if _, err := w.Write(b[:7]); err != nil {
		return err
	}
	for _, p := range pairs {
		binary.LittleEndian.PutUint32(b, uint32(int32(p.Node)))
		sum = crc32.Update(sum, wireCRC, b[:4])
		if _, err := w.Write(b[:4]); err != nil {
			return err
		}
		var err error
		if sum, err = writeTensorSum(w, p, sum); err != nil {
			return err
		}
	}
	return writeSumTrailer(w, sum)
}

// readJobBody decodes a job frame after its type byte. A count of zero
// or past maxBoundaryTensors is rejected before anything is read for
// it; whether the pairs fit the model is the server's check.
func readJobBody(r io.Reader) (*jobRequest, error) {
	bp := wireBufs.Get().(*[]byte)
	defer wireBufs.Put(bp)
	b := *bp
	if _, err := io.ReadFull(r, b[:6]); err != nil {
		return nil, err
	}
	count := int(binary.LittleEndian.Uint16(b[4:]))
	if count == 0 || count > maxBoundaryTensors {
		return nil, fmt.Errorf("runtime: bad boundary count %d", count)
	}
	req := &jobRequest{JobID: binary.LittleEndian.Uint32(b)}
	req.Pairs = req.one[:0]
	if count > 1 {
		req.Pairs = make([]boundary, 0, count)
	}
	sum := crc32.Update(0, wireCRC, b[:6])
	for i := 0; i < count; i++ {
		if _, err := io.ReadFull(r, b[:4]); err != nil {
			return nil, err
		}
		sum = crc32.Update(sum, wireCRC, b[:4])
		node := int(int32(binary.LittleEndian.Uint32(b)))
		p, s, err := readTensorSum(r, sum)
		if err != nil {
			return nil, err
		}
		p.Node, sum = node, s
		req.Pairs = append(req.Pairs, p)
	}
	if err := readSumTrailer(r, sum); err != nil {
		return nil, err
	}
	return req, nil
}

// writeSumTrailer appends the running CRC-32C to the frame. The four
// bytes stage through the pool: a stack array would escape into the
// io.Writer and put an allocation on the zero-alloc encode path.
func writeSumTrailer(w io.Writer, sum uint32) error {
	bp := wireBufs.Get().(*[]byte)
	b := *bp
	binary.LittleEndian.PutUint32(b, sum)
	_, err := w.Write(b[:4])
	wireBufs.Put(bp)
	return err
}

// readSumTrailer reads the trailer and compares it to the sum the
// reader accumulated over the body bytes.
func readSumTrailer(r io.Reader, sum uint32) error {
	bp := wireBufs.Get().(*[]byte)
	defer wireBufs.Put(bp)
	b := *bp
	if _, err := io.ReadFull(r, b[:4]); err != nil {
		return err
	}
	if got := binary.LittleEndian.Uint32(b); got != sum {
		return fmt.Errorf("runtime: frame checksum mismatch (got %08x, computed %08x)", got, sum)
	}
	return nil
}

// writeTensorSum encodes a pair's tensor, threading a running CRC-32C
// over every byte it emits so writeJob checksums the whole frame
// without wrapping the writer (which would allocate on the hot path).
// Only the header depends on the element type: the rank byte — flagged
// and followed by the affine mapping for int8 — then the dims. The
// payload is the tensor's memory, written from it in wireChunkSize
// pieces.
func writeTensorSum(w io.Writer, p boundary, sum uint32) (uint32, error) {
	shape := p.shape()
	rank := shape.Rank()
	if rank == 0 || rank > maxTensorRank {
		return sum, fmt.Errorf("runtime: cannot encode tensor of rank %d", rank)
	}
	bp := wireBufs.Get().(*[]byte)
	defer wireBufs.Put(bp)
	hdr := append((*bp)[:0], uint8(rank))
	if p.Q != nil {
		hdr[0] |= quantTensorFlag
		hdr = binary.LittleEndian.AppendUint32(hdr, math.Float32bits(p.Q.Scale))
		hdr = append(hdr, byte(int8(p.Q.Zero)))
	}
	for _, d := range shape {
		hdr = binary.LittleEndian.AppendUint32(hdr, uint32(d))
	}
	sum = crc32.Update(sum, wireCRC, hdr)
	if _, err := w.Write(hdr); err != nil {
		return sum, err
	}
	data := tensorBytes(p)
	for off := 0; off < len(data); off += wireChunkSize {
		piece := data[off:min(off+wireChunkSize, len(data))]
		sum = crc32.Update(sum, wireCRC, piece)
		if _, err := w.Write(piece); err != nil {
			return sum, err
		}
	}
	return sum, nil
}

// readTensorSum decodes a tensor frame into a fresh pair — float32 for
// a bare rank byte, int8 for a flagged one — extending the running
// CRC-32C over every byte it consumes. Every header field is checked
// before anything is allocated; then the tensor's header, shape and
// data are three allocations whatever the payload size, and the
// payload is read straight into the tensor's memory in wireChunkSize
// pieces.
func readTensorSum(r io.Reader, sum uint32) (boundary, uint32, error) {
	bp := wireBufs.Get().(*[]byte)
	defer wireBufs.Put(bp)
	chunk := *bp
	if _, err := io.ReadFull(r, chunk[:1]); err != nil {
		return boundary{}, sum, err
	}
	quant := chunk[0]&quantTensorFlag != 0
	rank := int(chunk[0] &^ quantTensorFlag)
	if rank == 0 || rank > maxTensorRank {
		return boundary{}, sum, fmt.Errorf("runtime: bad tensor rank %d", chunk[0])
	}
	sum = crc32.Update(sum, wireCRC, chunk[:1])
	var qp tensor.QParams
	elemBytes := int64(4)
	if quant {
		if _, err := io.ReadFull(r, chunk[:5]); err != nil {
			return boundary{}, sum, err
		}
		sum = crc32.Update(sum, wireCRC, chunk[:5])
		qp.Scale = math.Float32frombits(binary.LittleEndian.Uint32(chunk))
		qp.Zero = int32(int8(chunk[4]))
		// A hostile scale would decode into NaN/Inf activations; the
		// real encoder only ever emits finite positive scales.
		if !(qp.Scale > 0) || math.IsInf(float64(qp.Scale), 1) {
			return boundary{}, sum, fmt.Errorf("runtime: bad quant scale %v", qp.Scale)
		}
		elemBytes = 1
	}
	if _, err := io.ReadFull(r, chunk[:4*rank]); err != nil {
		return boundary{}, sum, err
	}
	sum = crc32.Update(sum, wireCRC, chunk[:4*rank])
	var dims [maxTensorRank]int // the shape stays on the stack: New and NewQ clone it
	shape := tensor.Shape(dims[:rank])
	elems := int64(1)
	for i := range shape {
		d := int32(binary.LittleEndian.Uint32(chunk[4*i:]))
		if d <= 0 {
			return boundary{}, sum, fmt.Errorf("runtime: bad tensor dim %d", d)
		}
		shape[i] = int(d)
		// Guard the running product in int64 so adversarial dims can
		// neither overflow int nor drive a huge allocation.
		elems *= int64(d)
		if elems*elemBytes > maxTensorBytes {
			return boundary{}, sum, fmt.Errorf("runtime: tensor too large: %v", shape[:i+1].Clone())
		}
	}
	var p boundary
	if quant {
		p.Q = tensor.NewQ(shape, qp)
	} else {
		p.T = tensor.New(shape)
	}
	data := tensorBytes(p)
	for off := 0; off < len(data); off += wireChunkSize {
		piece := data[off:min(off+wireChunkSize, len(data))]
		if _, err := io.ReadFull(r, piece); err != nil {
			return boundary{}, sum, err
		}
		sum = crc32.Update(sum, wireCRC, piece)
	}
	return p, sum, nil
}

func writeInferReply(w io.Writer, rep *inferReply) error {
	bp := wireBufs.Get().(*[]byte)
	b := *bp
	b[0] = msgReply
	binary.LittleEndian.PutUint32(b[1:], rep.JobID)
	binary.LittleEndian.PutUint32(b[5:], uint32(rep.Class))
	binary.LittleEndian.PutUint64(b[9:], uint64(rep.CloudNs))
	binary.LittleEndian.PutUint64(b[17:], uint64(rep.QueueNs))
	b[25] = rep.Flags
	binary.LittleEndian.PutUint32(b[26:], crc32.Checksum(b[1:26], wireCRC))
	_, err := w.Write(b[:replyWireBytes])
	wireBufs.Put(bp)
	return err
}

// readInferReplyBody decodes the fixed 29-byte reply payload (25 body
// bytes + CRC-32C) after the type byte has been consumed (the client
// demultiplexer dispatches on the type itself).
func readInferReplyBody(r io.Reader) (inferReply, error) {
	bp := wireBufs.Get().(*[]byte)
	defer wireBufs.Put(bp)
	b := *bp
	if _, err := io.ReadFull(r, b[:replyWireBytes-1]); err != nil {
		return inferReply{}, err
	}
	if got, want := binary.LittleEndian.Uint32(b[25:]), crc32.Checksum(b[:25], wireCRC); got != want {
		return inferReply{}, fmt.Errorf("runtime: reply checksum mismatch (got %08x, computed %08x)", got, want)
	}
	return inferReply{
		JobID:   binary.LittleEndian.Uint32(b),
		Class:   int32(binary.LittleEndian.Uint32(b[4:])),
		CloudNs: int64(binary.LittleEndian.Uint64(b[8:])),
		QueueNs: int64(binary.LittleEndian.Uint64(b[16:])),
		Flags:   b[24],
	}, nil
}

// writePing sends a calibration payload of the given size. Payload
// bytes are zeros streamed from a pooled chunk.
func writePing(w io.Writer, payload int) error {
	bp := wireBufs.Get().(*[]byte)
	defer wireBufs.Put(bp)
	chunk := *bp
	chunk[0] = msgPing
	binary.LittleEndian.PutUint32(chunk[1:], uint32(payload))
	if _, err := w.Write(chunk[:5]); err != nil {
		return err
	}
	clear(chunk)
	for off := 0; off < payload; off += wireChunkSize {
		if _, err := w.Write(chunk[:min(wireChunkSize, payload-off)]); err != nil {
			return err
		}
	}
	return nil
}

// readPingBody consumes a ping payload and returns its size.
func readPingBody(r io.Reader) (int, error) {
	bp := wireBufs.Get().(*[]byte)
	defer wireBufs.Put(bp)
	b := *bp
	if _, err := io.ReadFull(r, b[:4]); err != nil {
		return 0, err
	}
	n := binary.LittleEndian.Uint32(b)
	if n > maxTensorBytes {
		return 0, fmt.Errorf("runtime: ping payload too large: %d", n)
	}
	if _, err := io.CopyN(io.Discard, r, int64(n)); err != nil {
		return 0, err
	}
	return int(n), nil
}

// writePong acknowledges a ping.
func writePong(w io.Writer) error {
	bp := wireBufs.Get().(*[]byte)
	b := *bp
	b[0] = msgPing
	_, err := w.Write(b[:1])
	wireBufs.Put(bp)
	return err
}

// writeHello sends the tenant handshake: type byte, one length byte,
// the tenant ID bytes, and a CRC-32C over length+ID. The frame gets no
// reply — a client that cares whether the server honored it observes
// the per-tenant metrics. Legacy clients simply never send one and
// land in the shared default tenant.
func writeHello(w io.Writer, tenant string) error {
	if tenant == "" || len(tenant) > maxTenantLen {
		return fmt.Errorf("runtime: bad tenant ID length %d (want 1..%d)", len(tenant), maxTenantLen)
	}
	bp := wireBufs.Get().(*[]byte)
	b := *bp
	b[0] = msgHello
	b[1] = byte(len(tenant))
	copy(b[2:], tenant)
	n := 2 + len(tenant)
	binary.LittleEndian.PutUint32(b[n:], crc32.Checksum(b[1:n], wireCRC))
	_, err := w.Write(b[:n+4])
	wireBufs.Put(bp)
	return err
}

// readHelloBody decodes the tenant ID after the type byte has been
// consumed.
func readHelloBody(r io.Reader) (string, error) {
	bp := wireBufs.Get().(*[]byte)
	defer wireBufs.Put(bp)
	b := *bp
	if _, err := io.ReadFull(r, b[:1]); err != nil {
		return "", err
	}
	n := int(b[0])
	if n == 0 || n > maxTenantLen {
		return "", fmt.Errorf("runtime: bad tenant ID length %d", n)
	}
	if _, err := io.ReadFull(r, b[1:1+n+4]); err != nil {
		return "", err
	}
	if got, want := binary.LittleEndian.Uint32(b[1+n:]), crc32.Checksum(b[:1+n], wireCRC); got != want {
		return "", fmt.Errorf("runtime: hello checksum mismatch (got %08x, computed %08x)", got, want)
	}
	return string(b[1 : 1+n]), nil
}
