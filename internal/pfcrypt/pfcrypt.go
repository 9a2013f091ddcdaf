// Package pfcrypt is the protected-files utility of the MVTEE TEE OS — the
// analogue of Gramine's gramine-sgx-pf-crypt tool (§5.1). Files are encrypted
// with AES-GCM-256 under per-file one-time keys; the caller's variant-specific
// key acts only as a key-derivation key that wraps the file keys. As §6.5
// notes, this hierarchy bounds the ciphertext volume under any single key and
// eases key rotation.
package pfcrypt

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hkdf"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
)

const (
	magic    = "MVPF"
	saltLen  = 16
	keyLen   = 32
	nonceLen = 12
	tagLen   = 16
)

// Errors.
var (
	ErrFormat = errors.New("pfcrypt: malformed protected file")
	ErrAuth   = errors.New("pfcrypt: authentication failed (wrong key or tampered file)")
)

// KDK is a key-derivation key. In MVTEE each variant receives its own KDK
// from the monitor during bootstrap.
type KDK []byte

// NewKDK generates a fresh random key-derivation key.
func NewKDK() (KDK, error) {
	k := make([]byte, keyLen)
	if _, err := rand.Read(k); err != nil {
		return nil, fmt.Errorf("pfcrypt: generate KDK: %w", err)
	}
	return k, nil
}

func wrapKey(kdk KDK, salt []byte) ([]byte, error) {
	return hkdf.Key(sha256.New, kdk, salt, "mvtee-pf-wrap", keyLen)
}

func newGCM(key []byte) (cipher.AEAD, error) {
	blk, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(blk)
}

// Encrypt protects plaintext under the KDK. Layout:
//
//	magic | salt | wrapNonce | wrappedFileKey | dataNonce | ciphertext
//
// where wrappedFileKey is the random one-time file key sealed under
// HKDF(kdk, salt), and ciphertext is AES-GCM-256 of the plaintext under the
// file key with the path as additional authenticated data.
func Encrypt(kdk KDK, path string, plaintext []byte) ([]byte, error) {
	// The blob is sized exactly up front: salt and nonces are drawn into
	// it and both seals append in place, so the ciphertext is written once.
	const wrappedLen = keyLen + tagLen
	const hdrLen = len(magic) + saltLen + nonceLen + 1
	out := make([]byte, hdrLen, hdrLen+wrappedLen+nonceLen+len(plaintext)+tagLen)
	copy(out, magic)
	salt := out[len(magic) : len(magic)+saltLen]
	wrapNonce := out[len(magic)+saltLen : hdrLen-1]
	out[hdrLen-1] = wrappedLen
	fileKey := make([]byte, keyLen)
	for _, b := range [][]byte{salt, wrapNonce, fileKey} {
		if _, err := rand.Read(b); err != nil {
			return nil, fmt.Errorf("pfcrypt: %w", err)
		}
	}
	wk, err := wrapKey(kdk, salt)
	if err != nil {
		return nil, fmt.Errorf("pfcrypt: derive wrap key: %w", err)
	}
	wgcm, err := newGCM(wk)
	if err != nil {
		return nil, fmt.Errorf("pfcrypt: %w", err)
	}
	out = wgcm.Seal(out, wrapNonce, fileKey, []byte("filekey/"+path))

	fgcm, err := newGCM(fileKey)
	if err != nil {
		return nil, fmt.Errorf("pfcrypt: %w", err)
	}
	dataNonce := out[len(out) : len(out)+nonceLen]
	if _, err := rand.Read(dataNonce); err != nil {
		return nil, fmt.Errorf("pfcrypt: %w", err)
	}
	out = out[:len(out)+nonceLen]
	return fgcm.Seal(out, dataNonce, plaintext, []byte("data/"+path)), nil
}

// Decrypt recovers the plaintext of a protected file. Path must match the
// path used at encryption time (it is authenticated).
func Decrypt(kdk KDK, path string, blob []byte) ([]byte, error) {
	if len(blob) < len(magic)+saltLen+nonceLen+1 || string(blob[:len(magic)]) != magic {
		return nil, ErrFormat
	}
	p := blob[len(magic):]
	salt, p := p[:saltLen], p[saltLen:]
	wrapNonce, p := p[:nonceLen], p[nonceLen:]
	wlen := int(p[0])
	p = p[1:]
	if len(p) < wlen+nonceLen {
		return nil, ErrFormat
	}
	wrapped, p := p[:wlen], p[wlen:]
	dataNonce, ct := p[:nonceLen], p[nonceLen:]

	wk, err := wrapKey(kdk, salt)
	if err != nil {
		return nil, fmt.Errorf("pfcrypt: derive wrap key: %w", err)
	}
	wgcm, err := newGCM(wk)
	if err != nil {
		return nil, fmt.Errorf("pfcrypt: %w", err)
	}
	fileKey, err := wgcm.Open(nil, wrapNonce, wrapped, []byte("filekey/"+path))
	if err != nil {
		return nil, ErrAuth
	}
	fgcm, err := newGCM(fileKey)
	if err != nil {
		return nil, fmt.Errorf("pfcrypt: %w", err)
	}
	pt, err := fgcm.Open(nil, dataNonce, ct, []byte("data/"+path))
	if err != nil {
		return nil, ErrAuth
	}
	return pt, nil
}
