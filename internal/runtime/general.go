package runtime

// General-structure execution: a partition of a DAG model is a set of
// cut nodes (one per converted path — Alg. 3), so the client must ship
// SEVERAL boundary tensors and the server resumes from all of them.
// The wire frame is a msgInferSet: a count followed by (nodeID,
// tensor) pairs; the server executes every node outside the shipped
// set's ancestor closure, in topological order.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"dnnjps/internal/tensor"
)

const msgInferSet = byte(3) // client -> server: multi-tensor boundary set

const maxBoundaryTensors = 64

// inferSetRequest carries one job's boundary activations.
type inferSetRequest struct {
	JobID   uint32
	Nodes   []int32
	Tensors []*tensor.Tensor
}

// setWireBytes is reqWireBytes for a boundary set: type byte, job ID,
// count and CRC trailer once, then a node ID and a float32 tensor frame
// per pair.
func setWireBytes(req *inferSetRequest) int {
	n := 7 + 4
	for _, t := range req.Tensors {
		n += 4 + 1 + 4*t.Shape.Rank() + 4*t.Shape.Elems()
	}
	return n
}

func writeInferSetRequest(w io.Writer, req *inferSetRequest) error {
	if len(req.Nodes) != len(req.Tensors) {
		return fmt.Errorf("runtime: %d nodes vs %d tensors", len(req.Nodes), len(req.Tensors))
	}
	bp := wireBufs.Get().(*[]byte)
	defer wireBufs.Put(bp)
	b := *bp
	b[0] = msgInferSet
	binary.LittleEndian.PutUint32(b[1:], req.JobID)
	binary.LittleEndian.PutUint16(b[5:], uint16(len(req.Nodes)))
	sum := crc32.Update(0, wireCRC, b[1:7])
	if _, err := w.Write(b[:7]); err != nil {
		return err
	}
	for i, node := range req.Nodes {
		binary.LittleEndian.PutUint32(b, uint32(node))
		sum = crc32.Update(sum, wireCRC, b[:4])
		if _, err := w.Write(b[:4]); err != nil {
			return err
		}
		var err error
		if sum, err = writeTensorSum(w, req.Tensors[i], sum); err != nil {
			return err
		}
	}
	return writeSumTrailer(w, sum)
}

func readInferSetRequestBody(r io.Reader) (*inferSetRequest, error) {
	bp := wireBufs.Get().(*[]byte)
	defer wireBufs.Put(bp)
	b := *bp
	var req inferSetRequest
	if _, err := io.ReadFull(r, b[:6]); err != nil {
		return nil, err
	}
	req.JobID = binary.LittleEndian.Uint32(b)
	count := binary.LittleEndian.Uint16(b[4:])
	if count == 0 || count > maxBoundaryTensors {
		return nil, fmt.Errorf("runtime: bad boundary count %d", count)
	}
	sum := crc32.Update(0, wireCRC, b[:6])
	for i := 0; i < int(count); i++ {
		if _, err := io.ReadFull(r, b[:4]); err != nil {
			return nil, err
		}
		sum = crc32.Update(sum, wireCRC, b[:4])
		node := int32(binary.LittleEndian.Uint32(b))
		t, q, newSum, err := readTensorSum(r, sum)
		if err != nil {
			return nil, err
		}
		if q != nil {
			// General-plan boundary sets are float32-only; the quantized
			// frame form is reserved for line-view infer requests.
			return nil, fmt.Errorf("runtime: quantized tensor in infer-set request")
		}
		sum = newSum
		req.Nodes = append(req.Nodes, node)
		req.Tensors = append(req.Tensors, t)
	}
	if err := readSumTrailer(r, sum); err != nil {
		return nil, err
	}
	return &req, nil
}

// resumeSet runs the remote side of a checked boundary set — every
// node outside the set's ancestor closure — and returns the sink's
// activation.
func (s *Server) resumeSet(set *inferSetRequest) (*tensor.Tensor, error) {
	acts := make(map[int]*tensor.Tensor, len(set.Nodes))
	boundary := make([]int, len(set.Nodes))
	for i, node := range set.Nodes {
		boundary[i] = int(node)
		acts[boundary[i]] = set.Tensors[i]
	}
	if _, _, err := s.runSide(acts, nil, boundary); err != nil {
		return nil, err
	}
	return acts[s.units[len(s.units)-1].Exit], nil
}
