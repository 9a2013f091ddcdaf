// Package tensor provides the dense float32 tensor type used throughout the
// MVTEE inference stack. Tensors are row-major (C order); for image data the
// layout is NCHW, matching the ONNX convention the paper builds on.
package tensor

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Tensor is a dense, row-major float32 tensor. The zero value is an empty
// scalar-less tensor; use New or FromSlice to construct usable values.
type Tensor struct {
	shape []int
	data  []float32
}

// ErrShape reports an invalid or mismatched shape.
var ErrShape = errors.New("tensor: invalid shape")

// MaxVolume bounds a tensor's element count. The float32 backing of a
// tensor at this size is already 8 GiB — far beyond anything the engine
// serves — and the bound keeps the volume product from wrapping around
// the int range on adversarial shapes.
const MaxVolume = math.MaxInt32

// CheckedVolume returns the element count of shape, rejecting negative
// dimensions and products that exceed MaxVolume (including ones that would
// overflow). Use it wherever a shape crosses a trust boundary; Volume is
// the unchecked variant for shapes the process made itself.
func CheckedVolume(shape []int) (int, error) {
	n := 1
	for _, d := range shape {
		if d < 0 {
			return 0, fmt.Errorf("%w: negative dimension %d", ErrShape, d)
		}
		if d > 0 && n > MaxVolume/d {
			return 0, fmt.Errorf("%w: volume of %v exceeds %d elements", ErrShape, shape, MaxVolume)
		}
		n *= d
	}
	return n, nil
}

// New returns a zero-filled tensor with the given shape. It panics if any
// dimension is negative or the volume exceeds MaxVolume; an empty shape
// yields a scalar (one element).
func New(shape ...int) *Tensor {
	n, err := CheckedVolume(shape)
	if err != nil {
		panic(err.Error())
	}
	return &Tensor{shape: append([]int(nil), shape...), data: make([]float32, n)}
}

// FromSlice wraps data in a tensor with the given shape. The data slice is
// retained, not copied. It returns an error if the shape is invalid (see
// Volume) or len(data) does not match the shape volume.
func FromSlice(data []float32, shape ...int) (*Tensor, error) {
	n, err := CheckedVolume(shape)
	if err != nil {
		return nil, err
	}
	if len(data) != n {
		return nil, fmt.Errorf("%w: data length %d != volume %d of %v", ErrShape, len(data), n, shape)
	}
	return &Tensor{shape: append([]int(nil), shape...), data: data}, nil
}

// MustFromSlice is FromSlice that panics on error; for tests and literals.
func MustFromSlice(data []float32, shape ...int) *Tensor {
	t, err := FromSlice(data, shape...)
	if err != nil {
		panic(err)
	}
	return t
}

// Shape returns a copy of the tensor's shape.
func (t *Tensor) Shape() []int { return append([]int(nil), t.shape...) }

// Dims returns the number of dimensions.
func (t *Tensor) Dims() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.data) }

// Data returns the underlying storage. Mutating it mutates the tensor.
func (t *Tensor) Data() []float32 { return t.data }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := &Tensor{shape: append([]int(nil), t.shape...), data: make([]float32, len(t.data))}
	copy(c.data, t.data)
	return c
}

// ResetShape repoints t at shape, reusing t's storage when capacity allows.
// Executor arenas use it to recycle tensors across runs. Existing element
// values are preserved up to the new volume; callers that rely on zeroed
// contents must clear the data themselves.
func (t *Tensor) ResetShape(shape ...int) {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d", d))
		}
		n *= d
	}
	if cap(t.data) < n {
		t.data = make([]float32, n)
	} else {
		t.data = t.data[:n]
	}
	t.shape = append(t.shape[:0], shape...)
}

// Reshape returns a view of t with a new shape of equal volume. The data is
// shared with t.
func (t *Tensor) Reshape(shape ...int) (*Tensor, error) {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.data) {
		return nil, fmt.Errorf("%w: cannot reshape volume %d to %v", ErrShape, len(t.data), shape)
	}
	return &Tensor{shape: append([]int(nil), shape...), data: t.data}, nil
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float32 { return t.data[t.offset(idx)] }

// Set stores v at the given multi-index.
func (t *Tensor) Set(v float32, idx ...int) { t.data[t.offset(idx)] = v }

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d != tensor rank %d", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %d out of range for dim %d (size %d)", x, i, t.shape[i]))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.data {
		t.data[i] = v
	}
}

// Apply replaces every element x with f(x).
func (t *Tensor) Apply(f func(float32) float32) {
	for i, x := range t.data {
		t.data[i] = f(x)
	}
}

// AddInPlace adds o element-wise into t. Shapes must match exactly.
func (t *Tensor) AddInPlace(o *Tensor) error {
	if !t.SameShape(o) {
		return fmt.Errorf("%w: add %v vs %v", ErrShape, t.shape, o.shape)
	}
	for i := range t.data {
		t.data[i] += o.data[i]
	}
	return nil
}

// Scale multiplies every element by s.
func (t *Tensor) Scale(s float32) {
	for i := range t.data {
		t.data[i] *= s
	}
}

// String renders a compact description (shape plus a few leading values).
func (t *Tensor) String() string {
	n := len(t.data)
	if n > 4 {
		n = 4
	}
	return fmt.Sprintf("Tensor%v%v…", t.shape, t.data[:n])
}

// HasNaN reports whether any element is NaN or ±Inf.
func (t *Tensor) HasNaN() bool {
	for _, x := range t.data {
		if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
			return true
		}
	}
	return false
}

// Volume returns the product of the dims in shape.
func Volume(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}

// --- Binary serialization -------------------------------------------------
//
// Checkpoint tensors cross TEE boundaries constantly, so the codec is a tight
// little-endian format: u32 rank, rank×u32 dims, raw float32 payload.

// MaxWireDims bounds a tensor's rank on every wire surface (internal
// checkpoint codec and the public binary request protocol alike).
const MaxWireDims = 16

const maxWireDims = MaxWireDims

// EncodedSize returns the exact wire-format size of t in bytes, so callers
// can encode into a pre-sized buffer with Encode.
func (t *Tensor) EncodedSize() int { return 4 + 4*len(t.shape) + 4*len(t.data) }

// Encode writes the wire-format encoding of t into dst, which must hold at
// least EncodedSize bytes, and returns the number of bytes written. The
// pooled wire codec encodes tensors straight into its frame buffer with it.
func (t *Tensor) Encode(dst []byte) int {
	binary.LittleEndian.PutUint32(dst, uint32(len(t.shape)))
	for i, d := range t.shape {
		binary.LittleEndian.PutUint32(dst[4+4*i:], uint32(d))
	}
	off := 4 + 4*len(t.shape)
	EncodeFloats(dst[off:], t.data)
	return off + 4*len(t.data)
}

// Unmarshal decodes a tensor from the wire format, returning the tensor and
// the number of bytes consumed.
func Unmarshal(buf []byte) (*Tensor, int, error) {
	if len(buf) < 4 {
		return nil, 0, io.ErrUnexpectedEOF
	}
	rank := int(binary.LittleEndian.Uint32(buf))
	if rank > maxWireDims {
		return nil, 0, fmt.Errorf("%w: rank %d exceeds limit %d", ErrShape, rank, maxWireDims)
	}
	if len(buf) < 4+4*rank {
		return nil, 0, io.ErrUnexpectedEOF
	}
	shape := make([]int, rank)
	for i := range shape {
		shape[i] = int(binary.LittleEndian.Uint32(buf[4+4*i:]))
	}
	vol, err := CheckedVolume(shape)
	if err != nil {
		return nil, 0, err
	}
	off := 4 + 4*rank
	if (len(buf)-off)/4 < vol {
		return nil, 0, io.ErrUnexpectedEOF
	}
	data := make([]float32, vol)
	for i := range data {
		data[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[off+4*i:]))
	}
	return &Tensor{shape: shape, data: data}, off + 4*vol, nil
}

// EncodeFloats writes src as little-endian float32 bytes into dst, which
// must hold at least 4*len(src) bytes. It is the payload core of Encode,
// exposed so streaming writers can convert in pooled chunks.
func EncodeFloats(dst []byte, src []float32) {
	for i, f := range src {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(f))
	}
}

// DecodeFloats fills dst from little-endian float32 bytes in src, which must
// hold at least 4*len(dst) bytes. Bit patterns are preserved exactly (NaN
// payloads included); it is the inverse of EncodeFloats.
func DecodeFloats(dst []float32, src []byte) {
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
}

// ReadPayloadInto streams 4*len(dst) bytes of little-endian float32 payload
// from r into dst, staging through scratch so an arbitrarily large tensor
// body is decoded with zero additional allocation. scratch must hold at
// least 4 bytes; larger scratch means fewer reads.
func ReadPayloadInto(r io.Reader, dst []float32, scratch []byte) error {
	if len(scratch) < 4 {
		return fmt.Errorf("tensor: payload scratch too small (%d bytes)", len(scratch))
	}
	chunk := len(scratch) / 4 // whole floats per read
	for off := 0; off < len(dst); off += chunk {
		n := min(chunk, len(dst)-off)
		if _, err := io.ReadFull(r, scratch[:4*n]); err != nil {
			return err
		}
		DecodeFloats(dst[off:off+n], scratch)
	}
	return nil
}

// readChunk is how many floats ReadFrom's first read may allocate for. The
// backing array then at most doubles per read, capped at the declared
// volume, so a header that declares a huge tensor costs memory in proportion
// to the payload bytes that actually arrive. The payload is staged through
// at most readScratch floats.
const (
	readChunk   = 1 << 14
	readScratch = 1 << 10
)

// ReadFrom deserializes a tensor from r in the wire format. The shape is
// checked like Unmarshal's before anything is allocated for the payload.
func ReadFrom(r io.Reader) (*Tensor, error) {
	var rankBuf [4]byte
	if _, err := io.ReadFull(r, rankBuf[:]); err != nil {
		return nil, fmt.Errorf("tensor: read rank: %w", err)
	}
	rank := int(binary.LittleEndian.Uint32(rankBuf[:]))
	if rank > maxWireDims {
		return nil, fmt.Errorf("%w: rank %d exceeds limit %d", ErrShape, rank, maxWireDims)
	}
	dims := make([]byte, 4*rank)
	if _, err := io.ReadFull(r, dims); err != nil {
		return nil, fmt.Errorf("tensor: read dims: %w", err)
	}
	shape := make([]int, rank)
	for i := range shape {
		shape[i] = int(binary.LittleEndian.Uint32(dims[4*i:]))
	}
	vol, err := CheckedVolume(shape)
	if err != nil {
		return nil, err
	}
	scratch := make([]byte, 4*max(min(vol, readScratch), 1))
	data := make([]float32, 0, min(vol, readChunk))
	for {
		if err := ReadPayloadInto(r, data[len(data):cap(data)], scratch); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF // the header promised a payload
			}
			return nil, fmt.Errorf("tensor: read payload: %w", err)
		}
		data = data[:cap(data)]
		if len(data) == vol {
			return &Tensor{shape: shape, data: data}, nil
		}
		grown := make([]float32, len(data), min(vol, 2*len(data)))
		copy(grown, data)
		data = grown
	}
}
