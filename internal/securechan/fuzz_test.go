package securechan

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"testing"
)

// FuzzFrame drives the pre-authentication framing parser — the only record-
// layer surface an unauthenticated attacker controls — with arbitrary bytes:
// it must never panic, never accept a length beyond the cap, and never let a
// frame that was not sealed under the channel key authenticate.
func FuzzFrame(f *testing.F) {
	// Seed with a well-formed small frame, a forged giant length, a
	// truncated body and a zero-length frame.
	valid := make([]byte, 4+11)
	binary.BigEndian.PutUint32(valid, 11)
	copy(valid[4:], "hello world")
	f.Add(valid)
	huge := make([]byte, 4)
	binary.BigEndian.PutUint32(huge, uint32(MaxFrameSize)+1)
	f.Add(huge)
	trunc := make([]byte, 4+3)
	binary.BigEndian.PutUint32(trunc, 100)
	f.Add(trunc)
	f.Add(make([]byte, 4))

	blk, err := aes.NewCipher(bytes.Repeat([]byte{0x42}, 32))
	if err != nil {
		f.Fatal(err)
	}
	aead, err := cipher.NewGCM(blk)
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		n, err := readFrameLen(r, make([]byte, frameHdrLen))
		if err != nil {
			return
		}
		if n > MaxFrameSize {
			t.Fatalf("readFrameLen accepted %d > MaxFrameSize", n)
		}
		body, err := readBody(r, nil, n)
		if err != nil {
			return
		}
		if len(body) != n {
			t.Fatalf("readBody returned %d bytes for claimed %d", len(body), n)
		}
		// A frame the peer never sealed must not authenticate, whatever its
		// sequence number claims.
		sc := newSecureConn(nil, aead, aead, "c2s", "s2c", nil)
		if len(body) >= 8 {
			sc.recvSeq = binary.BigEndian.Uint64(body)
		}
		if _, err := sc.openLocked(append([]byte(nil), body...)); err == nil {
			t.Fatal("unauthenticated frame accepted by record layer")
		}
	})
}
