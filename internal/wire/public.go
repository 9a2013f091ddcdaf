// Public binary tensor protocol: the length-prefixed streaming frame format
// the serving front door speaks with clients under the
// `application/x-mvtee-tensor` content type. It reuses the internal
// checkpoint codec's primitives (little-endian, u32 rank + dims, raw float32
// payload) but adds what a public surface needs and the monitor↔variant
// plane does not: a magic/version header so the format can evolve, a
// per-frame length prefix so bodies stream incrementally, a validate hook so
// hostile shapes die before their payload is read, and an explicit end frame
// so a truncated response is distinguishable from a complete one.
//
// Request body (POST /v1/infer, Content-Type: application/x-mvtee-tensor):
//
//	magic   "MVT" (3 bytes) + version (1 byte, currently 1)
//	count   u16 — number of tensor frames that follow
//	count × tensor frame
//	end frame
//
// Every frame is kind (1 byte) + body length (u32 LE) + body:
//
//	FrameTensor  body = u16 name len + name + u32 rank + rank×u32 dims
//	             + 4·volume bytes of raw little-endian float32 payload
//	FrameMeta    body = u64 request ID + u64 batch ID + u32 batch fill
//	             + u64 latency ns + u16 output tensor count
//	FrameError   body = u32 HTTP status + u64 retry-after ns
//	             + u16 message len + message
//	FrameEnd     body empty — the stream completed intact
//
// Response body: header, one FrameMeta, then the tensor frames it counts
// (each flushed as written, so outputs stream back the moment the
// micro-batch clears the monitor quorum), then FrameEnd. Errors carry the
// HTTP status plus one FrameError body. Tensor names are sorted in both
// directions, so equal messages encode byte-identically.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"repro/internal/securechan"
	"repro/internal/tensor"
)

// ContentTypeBinary is the public binary tensor media type.
const ContentTypeBinary = "application/x-mvtee-tensor"

// PubVersion is the current public protocol version, carried in the header
// and advertised by /healthz.
const PubVersion = 1

// Public frame kinds.
const (
	FrameTensor byte = 1
	FrameMeta   byte = 2
	FrameError  byte = 3
	FrameEnd    byte = 4
)

// Public-surface limits: unlike the monitor↔variant plane, the client API
// is reachable before any attestation, so every bound is enforced during
// decode, before payload bytes are read.
const (
	// MaxPublicTensors caps the tensor count of one request or response.
	MaxPublicTensors = 64
	// MaxPublicNameLen caps a tensor name.
	MaxPublicNameLen = 256
	// pubScratch is the pooled staging-chunk size for payload conversion.
	pubScratch = 64 << 10
)

var pubMagic = [3]byte{'M', 'V', 'T'}

// ErrPubDecode reports a malformed public binary body. The serving layer
// maps it to 400.
var ErrPubDecode = errors.New("wire: malformed public tensor body")

const pubHeaderLen = 3 + 1 + 2 // magic + version + tensor count
const frameHdrSize = 1 + 4     // kind + body length

// PubMeta is the response metadata carried by a FrameMeta.
type PubMeta struct {
	ID        uint64
	BatchID   uint64
	BatchFill int
	Latency   time.Duration
	Tensors   int
}

// PubError is a decoded FrameError: the binary path's equivalent of the
// JSON error envelope, preserving the HTTP status and retry-after hint.
type PubError struct {
	Status     int
	RetryAfter time.Duration
	Msg        string
}

func (e *PubError) Error() string {
	if e.RetryAfter > 0 {
		return fmt.Sprintf("wire: server error %d: %s (retry after %v)", e.Status, e.Msg, e.RetryAfter)
	}
	return fmt.Sprintf("wire: server error %d: %s", e.Status, e.Msg)
}

// CheckPublicShape validates a tensor shape arriving over the public
// surface and returns its volume: rank within [1, tensor.MaxWireDims],
// every dimension ≥ 1 (the leading dimension is the item count; zero-volume
// tensors have no meaning in a batch), and an overflow-checked volume. Both
// the JSON and the binary door use it, so the two paths reject exactly the
// same shapes.
func CheckPublicShape(shape []int) (int, error) {
	if len(shape) == 0 || len(shape) > tensor.MaxWireDims {
		return 0, fmt.Errorf("%w: rank %d outside [1, %d]", tensor.ErrShape, len(shape), tensor.MaxWireDims)
	}
	for _, d := range shape {
		if d < 1 {
			return 0, fmt.Errorf("%w: dimension %d < 1 in %v", tensor.ErrShape, d, shape)
		}
	}
	return tensor.CheckedVolume(shape)
}

// --- request encode -----------------------------------------------------------

// tensorFrameSize is a tensor frame's full size including the frame header.
func tensorFrameSize(name string, shape []int, vol int) int {
	return frameHdrSize + 2 + len(name) + 4 + 4*len(shape) + 4*vol
}

// RequestEncodedSize returns the exact body size EncodeRequest will produce
// for inputs, for Content-Length preflight.
func RequestEncodedSize(inputs map[string]*tensor.Tensor) int64 {
	size := int64(pubHeaderLen + frameHdrSize) // header + end frame
	for name, t := range inputs {
		size += int64(tensorFrameSize(name, t.Shape(), t.Size()))
	}
	return size
}

// MaxRequestSize bounds the body of a binary request against the declared
// input interface: per input, a maximal frame of maxItems items. Binary
// payloads are 4 bytes per float32 plus tight framing, so the bound tracks
// real bodies closely — unlike the JSON cap, which must assume ~24 text
// bytes per float.
func MaxRequestSize(itemShapes map[string][]int, maxItems int) int64 {
	size := int64(pubHeaderLen + frameHdrSize)
	for name, shape := range itemShapes {
		per := 1
		for _, d := range shape[1:] {
			per *= d
		}
		size += int64(tensorFrameSize(name, shape, per*maxItems))
	}
	return size
}

func writeFrameHdr(dst []byte, kind byte, bodyLen int) {
	dst[0] = kind
	binary.LittleEndian.PutUint32(dst[1:], uint32(bodyLen))
}

// encodeTensorFrame encodes one complete tensor frame into a pooled buffer.
func encodeTensorFrame(name string, t *tensor.Tensor, shape []int) *securechan.Buf {
	vol := t.Size()
	size := tensorFrameSize(name, shape, vol)
	buf := securechan.GetBuf(size)
	dst := buf.Grow(size)
	writeFrameHdr(dst, FrameTensor, size-frameHdrSize)
	off := frameHdrSize
	off += putStrAt(dst[off:], name)
	binary.LittleEndian.PutUint32(dst[off:], uint32(len(shape)))
	off += 4
	for _, d := range shape {
		binary.LittleEndian.PutUint32(dst[off:], uint32(d))
		off += 4
	}
	tensor.EncodeFloats(dst[off:], t.Data())
	return buf
}

// WriteTensorFrame streams one named tensor as a public frame: the frame is
// staged in a pooled buffer (one size-classed pool hit, no allocation warm)
// and written in a single Write call.
func WriteTensorFrame(w io.Writer, name string, t *tensor.Tensor) error {
	if len(name) > MaxPublicNameLen {
		return fmt.Errorf("%w: tensor name %d bytes exceeds %d", ErrPubDecode, len(name), MaxPublicNameLen)
	}
	buf := encodeTensorFrame(name, t, t.Shape())
	_, err := w.Write(buf.Payload())
	buf.Free()
	return err
}

// EncodeRequest writes a complete v1 binary request body for inputs to w:
// header, one tensor frame per input in sorted name order, end frame.
func EncodeRequest(w io.Writer, inputs map[string]*tensor.Tensor) error {
	if len(inputs) == 0 || len(inputs) > MaxPublicTensors {
		return fmt.Errorf("%w: %d tensors outside [1, %d]", ErrPubDecode, len(inputs), MaxPublicTensors)
	}
	var hdr [pubHeaderLen]byte
	copy(hdr[:], pubMagic[:])
	hdr[3] = PubVersion
	binary.LittleEndian.PutUint16(hdr[4:], uint16(len(inputs)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	names := make([]string, 0, len(inputs))
	for name := range inputs {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		if err := WriteTensorFrame(w, name, inputs[name]); err != nil {
			return err
		}
	}
	return WriteEndFrame(w)
}

// --- request decode -----------------------------------------------------------

// readFrameHdr reads one frame header from r using scratch.
func readFrameHdr(r io.Reader, scratch []byte) (kind byte, bodyLen int, err error) {
	if _, err := io.ReadFull(r, scratch[:frameHdrSize]); err != nil {
		return 0, 0, fmt.Errorf("%w: frame header: %w", ErrPubDecode, err)
	}
	return scratch[0], int(binary.LittleEndian.Uint32(scratch[1:])), nil
}

// decodeTensorHeader reads and validates one tensor frame's preamble (name,
// rank, dims) from r, returning the name, shape and volume without touching
// the payload. bodyLen cross-checks the frame's declared length.
func decodeTensorHeader(r io.Reader, scratch []byte, bodyLen int) (string, []int, int, error) {
	if _, err := io.ReadFull(r, scratch[:2]); err != nil {
		return "", nil, 0, fmt.Errorf("%w: tensor name: %w", ErrPubDecode, err)
	}
	nameLen := int(binary.LittleEndian.Uint16(scratch))
	if nameLen == 0 || nameLen > MaxPublicNameLen {
		return "", nil, 0, fmt.Errorf("%w: tensor name length %d outside [1, %d]", ErrPubDecode, nameLen, MaxPublicNameLen)
	}
	if _, err := io.ReadFull(r, scratch[:nameLen+4]); err != nil {
		return "", nil, 0, fmt.Errorf("%w: tensor header: %w", ErrPubDecode, err)
	}
	name := string(scratch[:nameLen])
	rank := int(binary.LittleEndian.Uint32(scratch[nameLen:]))
	if rank < 1 || rank > tensor.MaxWireDims {
		return "", nil, 0, fmt.Errorf("%w: tensor %q rank %d outside [1, %d]", ErrPubDecode, name, rank, tensor.MaxWireDims)
	}
	if _, err := io.ReadFull(r, scratch[:4*rank]); err != nil {
		return "", nil, 0, fmt.Errorf("%w: tensor dims: %w", ErrPubDecode, err)
	}
	shape := make([]int, rank)
	for i := range shape {
		shape[i] = int(binary.LittleEndian.Uint32(scratch[4*i:]))
	}
	vol, err := CheckPublicShape(shape)
	if err != nil {
		return "", nil, 0, fmt.Errorf("%w: tensor %q: %v", ErrPubDecode, name, err)
	}
	if want := 2 + nameLen + 4 + 4*rank + 4*vol; bodyLen != want {
		return "", nil, 0, fmt.Errorf("%w: tensor %q frame length %d != %d for shape %v",
			ErrPubDecode, name, bodyLen, want, shape)
	}
	return name, shape, vol, nil
}

// DecodeRequest incrementally decodes a v1 binary request body from r. For
// each tensor frame the name and shape are decoded and — when validate is
// non-nil — vetted before a single payload byte is read, so a frame that
// fails admission (wrong shape, oversize item count) is rejected at header
// cost. Payloads stream through one pooled scratch buffer into each
// tensor's backing array: the backing array is the only per-tensor
// allocation regardless of body size.
//
// A validate error is returned unwrapped so the caller can keep its own
// error taxonomy (e.g. serve.ErrBadRequest); framing violations wrap
// ErrPubDecode.
func DecodeRequest(r io.Reader, validate func(name string, shape []int) error) (map[string]*tensor.Tensor, error) {
	scratch := securechan.GetBuf(pubScratch)
	defer scratch.Free()
	sb := scratch.Grow(pubScratch)

	if _, err := io.ReadFull(r, sb[:pubHeaderLen]); err != nil {
		return nil, fmt.Errorf("%w: header: %w", ErrPubDecode, err)
	}
	if [3]byte(sb[:3]) != pubMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrPubDecode)
	}
	if sb[3] != PubVersion {
		return nil, fmt.Errorf("%w: unsupported version %d (have %d)", ErrPubDecode, sb[3], PubVersion)
	}
	count := int(binary.LittleEndian.Uint16(sb[4:]))
	if count == 0 || count > MaxPublicTensors {
		return nil, fmt.Errorf("%w: %d tensors outside [1, %d]", ErrPubDecode, count, MaxPublicTensors)
	}

	inputs := make(map[string]*tensor.Tensor, count)
	for i := 0; i < count; i++ {
		kind, bodyLen, err := readFrameHdr(r, sb)
		if err != nil {
			return nil, err
		}
		if kind != FrameTensor {
			return nil, fmt.Errorf("%w: frame %d kind %d, want tensor", ErrPubDecode, i, kind)
		}
		name, shape, vol, err := decodeTensorHeader(r, sb, bodyLen)
		if err != nil {
			return nil, err
		}
		if _, dup := inputs[name]; dup {
			return nil, fmt.Errorf("%w: duplicate tensor %q", ErrPubDecode, name)
		}
		if validate != nil {
			if err := validate(name, shape); err != nil {
				return nil, err
			}
		}
		t := tensor.New(shape...)
		if err := tensor.ReadPayloadInto(r, t.Data(), sb); err != nil {
			// Double-wrap: keep ErrPubDecode for the 400 mapping, but leave the
			// reader's own error reachable — an http.MaxBytesError here must
			// surface as 413, not 400.
			return nil, fmt.Errorf("%w: tensor %q payload (%d floats): %w", ErrPubDecode, name, vol, err)
		}
		inputs[name] = t
	}
	kind, bodyLen, err := readFrameHdr(r, sb)
	if err != nil {
		return nil, err
	}
	if kind != FrameEnd || bodyLen != 0 {
		return nil, fmt.Errorf("%w: trailing frame kind %d len %d, want end", ErrPubDecode, kind, bodyLen)
	}
	return inputs, nil
}

// --- response stream ----------------------------------------------------------

// WriteResponseHeader writes the protocol header plus the FrameMeta
// announcing m.Tensors output frames.
func WriteResponseHeader(w io.Writer, m PubMeta) error {
	const metaBody = 8 + 8 + 4 + 8 + 2
	var buf [pubHeaderLen + frameHdrSize + metaBody]byte
	copy(buf[:], pubMagic[:])
	buf[3] = PubVersion
	binary.LittleEndian.PutUint16(buf[4:], uint16(m.Tensors))
	writeFrameHdr(buf[pubHeaderLen:], FrameMeta, metaBody)
	off := pubHeaderLen + frameHdrSize
	binary.LittleEndian.PutUint64(buf[off:], m.ID)
	binary.LittleEndian.PutUint64(buf[off+8:], m.BatchID)
	binary.LittleEndian.PutUint32(buf[off+16:], uint32(m.BatchFill))
	binary.LittleEndian.PutUint64(buf[off+20:], uint64(m.Latency))
	binary.LittleEndian.PutUint16(buf[off+28:], uint16(m.Tensors))
	_, err := w.Write(buf[:])
	return err
}

// WriteEndFrame terminates a well-formed stream.
func WriteEndFrame(w io.Writer) error {
	var buf [frameHdrSize]byte
	writeFrameHdr(buf[:], FrameEnd, 0)
	_, err := w.Write(buf[:])
	return err
}

// WriteErrorFrame writes the protocol header plus one FrameError. It is a
// complete (unterminated — errors are terminal) binary body for a failed
// request.
func WriteErrorFrame(w io.Writer, status int, retryAfter time.Duration, msg string) error {
	if len(msg) > 1<<15 {
		msg = msg[:1<<15]
	}
	size := pubHeaderLen + frameHdrSize + 4 + 8 + 2 + len(msg)
	buf := securechan.GetBuf(size)
	dst := buf.Grow(size)
	copy(dst, pubMagic[:])
	dst[3] = PubVersion
	binary.LittleEndian.PutUint16(dst[4:], 0)
	writeFrameHdr(dst[pubHeaderLen:], FrameError, 4+8+2+len(msg))
	off := pubHeaderLen + frameHdrSize
	binary.LittleEndian.PutUint32(dst[off:], uint32(status))
	binary.LittleEndian.PutUint64(dst[off+4:], uint64(retryAfter))
	putStrAt(dst[off+12:], msg)
	_, err := w.Write(buf.Payload())
	buf.Free()
	return err
}

// DecodeResponse decodes a complete binary response stream from r: meta
// plus the tensors it counts, verified to terminate with an end frame. A
// FrameError decodes into a *PubError return.
func DecodeResponse(r io.Reader) (PubMeta, map[string]*tensor.Tensor, error) {
	scratch := securechan.GetBuf(pubScratch)
	defer scratch.Free()
	sb := scratch.Grow(pubScratch)

	var meta PubMeta
	if _, err := io.ReadFull(r, sb[:pubHeaderLen]); err != nil {
		return meta, nil, fmt.Errorf("%w: header: %w", ErrPubDecode, err)
	}
	if [3]byte(sb[:3]) != pubMagic || sb[3] != PubVersion {
		return meta, nil, fmt.Errorf("%w: bad magic/version", ErrPubDecode)
	}
	kind, bodyLen, err := readFrameHdr(r, sb)
	if err != nil {
		return meta, nil, err
	}
	switch kind {
	case FrameError:
		if bodyLen < 4+8+2 || bodyLen > 4+8+2+(1<<15) {
			return meta, nil, fmt.Errorf("%w: error frame length %d", ErrPubDecode, bodyLen)
		}
		if _, err := io.ReadFull(r, sb[:bodyLen]); err != nil {
			return meta, nil, fmt.Errorf("%w: error frame: %v", ErrPubDecode, err)
		}
		msgLen := int(binary.LittleEndian.Uint16(sb[12:]))
		if 4+8+2+msgLen != bodyLen {
			return meta, nil, fmt.Errorf("%w: error frame message length %d", ErrPubDecode, msgLen)
		}
		return meta, nil, &PubError{
			Status:     int(binary.LittleEndian.Uint32(sb)),
			RetryAfter: time.Duration(binary.LittleEndian.Uint64(sb[4:])),
			Msg:        string(sb[14 : 14+msgLen]),
		}
	case FrameMeta:
		if bodyLen != 8+8+4+8+2 {
			return meta, nil, fmt.Errorf("%w: meta frame length %d", ErrPubDecode, bodyLen)
		}
		if _, err := io.ReadFull(r, sb[:bodyLen]); err != nil {
			return meta, nil, fmt.Errorf("%w: meta frame: %v", ErrPubDecode, err)
		}
		meta.ID = binary.LittleEndian.Uint64(sb)
		meta.BatchID = binary.LittleEndian.Uint64(sb[8:])
		meta.BatchFill = int(binary.LittleEndian.Uint32(sb[16:]))
		meta.Latency = time.Duration(binary.LittleEndian.Uint64(sb[20:]))
		meta.Tensors = int(binary.LittleEndian.Uint16(sb[28:]))
	default:
		return meta, nil, fmt.Errorf("%w: leading frame kind %d", ErrPubDecode, kind)
	}
	if meta.Tensors > MaxPublicTensors {
		return meta, nil, fmt.Errorf("%w: %d tensors exceeds %d", ErrPubDecode, meta.Tensors, MaxPublicTensors)
	}
	outs := make(map[string]*tensor.Tensor, meta.Tensors)
	for i := 0; i < meta.Tensors; i++ {
		kind, bodyLen, err := readFrameHdr(r, sb)
		if err != nil {
			return meta, nil, err
		}
		if kind != FrameTensor {
			return meta, nil, fmt.Errorf("%w: frame %d kind %d, want tensor", ErrPubDecode, i, kind)
		}
		name, shape, _, err := decodeTensorHeader(r, sb, bodyLen)
		if err != nil {
			return meta, nil, err
		}
		if _, dup := outs[name]; dup {
			return meta, nil, fmt.Errorf("%w: duplicate tensor %q", ErrPubDecode, name)
		}
		t := tensor.New(shape...)
		if err := tensor.ReadPayloadInto(r, t.Data(), sb); err != nil {
			return meta, nil, fmt.Errorf("%w: tensor %q payload: %v", ErrPubDecode, name, err)
		}
		outs[name] = t
	}
	kind, bodyLen, err = readFrameHdr(r, sb)
	if err != nil {
		return meta, nil, err
	}
	if kind != FrameEnd || bodyLen != 0 {
		return meta, nil, fmt.Errorf("%w: response not terminated (kind %d)", ErrPubDecode, kind)
	}
	return meta, outs, nil
}
