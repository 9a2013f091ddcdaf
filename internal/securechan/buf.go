package securechan

import (
	"math/bits"
	"sync"
)

// The zero-copy data plane encodes a wire message once, directly into the
// buffer the transport will write. A Buf reserves headroom in front of the
// payload for the frame header and record sequence number, and tailroom
// behind it for the AEAD tag, so the record layer can seal the payload in
// place and transmit header+sequence+ciphertext+tag as one contiguous write:
//
//	[0:4]    frame length (big endian), written at send time
//	[4:12]   record sequence number (secure channels; plain framing uses
//	         [8:12] for the length instead)
//	[12:12+n]    payload — plaintext, sealed in place on secure sends
//	[12+n:12+n+16] AEAD tag capacity
//
// Buffers come from size-classed pools, so a warm data plane allocates
// nothing on the send path.
const (
	frameHdrLen = 4
	recSeqLen   = 8
	// BufHeadroom is the space reserved in front of a Buf's payload for the
	// frame header and record sequence number.
	BufHeadroom = frameHdrLen + recSeqLen
	// BufTailroom is the space reserved behind the payload for the AEAD tag
	// (AES-GCM overhead).
	BufTailroom = 16
)

// Buf is a pooled frame buffer: a payload region with framing headroom and
// AEAD tailroom around it. Obtain with GetBuf, fill the payload via Grow (or
// AppendPayload), hand to a Conn's SendBuf — which consumes it — or release
// with Free.
type Buf struct {
	full []byte // BufHeadroom + payload capacity + BufTailroom
	n    int    // current payload length
	cls  int    // pool size class; -1 when unpooled (oversized)
}

// Buffer size classes are powers of two from 512 B to 512 MiB of total
// capacity; anything larger is allocated exactly and never pooled.
const (
	minBufClass = 9
	maxBufClass = 29
)

var bufPools [maxBufClass + 1]sync.Pool

// bufClass returns the smallest size class whose capacity holds total bytes,
// or -1 when total exceeds the largest pooled class.
func bufClass(total int) int {
	c := bits.Len(uint(total - 1))
	if c < minBufClass {
		c = minBufClass
	}
	if c > maxBufClass {
		return -1
	}
	return c
}

// GetBuf returns an empty pooled buffer whose payload region holds at least
// payloadCap bytes without reallocation.
func GetBuf(payloadCap int) *Buf {
	total := BufHeadroom + payloadCap + BufTailroom
	c := bufClass(total)
	if c < 0 {
		return &Buf{full: make([]byte, total), cls: -1}
	}
	if v := bufPools[c].Get(); v != nil {
		b := v.(*Buf)
		b.n = 0
		return b
	}
	return &Buf{full: make([]byte, 1<<c), cls: c}
}

// Free returns the buffer to its pool. The buffer must not be used after
// Free; SendBuf frees on the caller's behalf.
func (b *Buf) Free() {
	if b == nil || b.cls < 0 {
		return
	}
	bufPools[b.cls].Put(b)
}

// Len returns the current payload length.
func (b *Buf) Len() int { return b.n }

// Payload returns the current payload region. The slice aliases the pooled
// buffer: it is valid until SendBuf or Free.
func (b *Buf) Payload() []byte { return b.full[BufHeadroom : BufHeadroom+b.n] }

// Reset empties the payload, keeping the backing storage.
func (b *Buf) Reset() { b.n = 0 }

// Grow extends the payload by n bytes and returns the fresh region for the
// caller to fill, preserving the headroom/tailroom discipline if the backing
// array must be reallocated.
func (b *Buf) Grow(n int) []byte {
	need := BufHeadroom + b.n + n + BufTailroom
	if need > len(b.full) {
		c := bufClass(need)
		size := need
		if c >= 0 {
			size = 1 << c
		}
		nf := make([]byte, size)
		copy(nf, b.full[:BufHeadroom+b.n])
		b.full, b.cls = nf, c
	}
	p := b.full[BufHeadroom+b.n : BufHeadroom+b.n+n]
	b.n += n
	return p
}

// AppendPayload copies p onto the end of the payload.
func (b *Buf) AppendPayload(p []byte) { copy(b.Grow(len(p)), p) }
