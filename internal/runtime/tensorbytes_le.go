//go:build 386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm

package runtime

import "unsafe"

// tensorBytes is the memory of a pair's tensor, which is its frame's
// payload: an int8 code is one byte, a float32 the four bytes of its
// little-endian IEEE-754 word — how every GOARCH above keeps a float32
// in memory. No big-endian GOARCH is listed, so there the package does
// not build: failing to build beats sending host-order bytes.
func tensorBytes(p boundary) []byte {
	if p.Q != nil {
		return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(p.Q.Data))), len(p.Q.Data))
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(p.T.Data))), 4*len(p.T.Data))
}
