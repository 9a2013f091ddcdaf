// Package enclave simulates the CPU Trusted Execution Environments MVTEE
// runs on. The paper's prototype uses Intel SGX and TDX hardware; this
// package substitutes a software platform with the same trust interfaces:
// per-platform hardware signing keys, code measurement, signed attestation
// reports bound to caller-chosen report data, sealing keys derived from
// measurement and platform secrets, and EPC (secure memory) accounting with
// SGX1/SGX2/TDX capability profiles. All protocol logic above this layer —
// attestation verification, channel binding, trust policy — is identical to
// what would run against real hardware.
package enclave

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/hkdf"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// TEEType identifies the simulated TEE technology of a platform.
type TEEType int

// Supported TEE types. They differ in memory model and integrity guarantees,
// mirroring §6.5's discussion (SGX1: small EPC with hardware integrity tree;
// SGX2: large EPC + dynamic memory management, no integrity tree; TDX:
// VM-based, large memory).
const (
	SGX1 TEEType = iota + 1
	SGX2
	TDX
)

func (t TEEType) String() string {
	switch t {
	case SGX1:
		return "sgx1"
	case SGX2:
		return "sgx2"
	case TDX:
		return "tdx"
	default:
		return fmt.Sprintf("TEEType(%d)", int(t))
	}
}

// Measurement is the SHA-256 digest of an enclave's initial code and
// configuration (MRENCLAVE analogue).
type Measurement [32]byte

// ReportData is the caller-chosen payload bound into an attestation report
// (e.g., a hash of a channel public key for RA-TLS binding).
type ReportData [64]byte

// Platform is one simulated TEE-capable machine. It owns the hardware
// attestation key and the secure-memory budget shared by its enclaves.
type Platform struct {
	ID   string
	Type TEEType

	mu       sync.Mutex
	key      *ecdsa.PrivateKey
	secret   [32]byte // fused provisioning secret (sealing root)
	epcTotal int64
	epcUsed  int64
	features Features
}

// Features describes platform capabilities relevant to MVTEE's security
// analysis.
type Features struct {
	// IntegrityTree: hardware memory-integrity protection (SGX1).
	IntegrityTree bool
	// DynamicMemory: EDMM-style runtime page management (SGX2, TDX).
	DynamicMemory bool
}

// NewPlatform creates a platform of the given type with an EPC budget in
// bytes. Keys and secrets are freshly generated.
func NewPlatform(id string, tt TEEType, epcBytes int64) (*Platform, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("enclave: generate platform key: %w", err)
	}
	p := &Platform{ID: id, Type: tt, key: key, epcTotal: epcBytes}
	if _, err := rand.Read(p.secret[:]); err != nil {
		return nil, fmt.Errorf("enclave: generate platform secret: %w", err)
	}
	switch tt {
	case SGX1:
		p.features = Features{IntegrityTree: true}
	case SGX2, TDX:
		p.features = Features{DynamicMemory: true}
	default:
		return nil, fmt.Errorf("enclave: unknown TEE type %d", int(tt))
	}
	return p, nil
}

// Features returns the platform capability profile.
func (p *Platform) Features() Features { return p.features }

// PublicKey returns the platform's attestation verification key.
func (p *Platform) PublicKey() *ecdsa.PublicKey { return &p.key.PublicKey }

// Image is the code and configuration loaded into an enclave; its digest is
// the enclave measurement.
type Image struct {
	Name string
	// Code is the measured payload (binary, manifest, static data).
	Code []byte
	// InitialPages is the committed secure-memory size at launch.
	InitialPages int64
}

// Measure computes the measurement of an image.
func Measure(img Image) Measurement {
	h := sha256.New()
	h.Write([]byte(img.Name))
	var sz [8]byte
	binary.LittleEndian.PutUint64(sz[:], uint64(len(img.Code)))
	h.Write(sz[:])
	h.Write(img.Code)
	var m Measurement
	copy(m[:], h.Sum(nil))
	return m
}

// Errors.
var (
	ErrEPCExhausted = errors.New("enclave: EPC exhausted")
	ErrNoEDMM       = errors.New("enclave: platform lacks dynamic memory management")
	ErrDestroyed    = errors.New("enclave: destroyed")
)

// Enclave is a launched TEE instance.
type Enclave struct {
	platform *Platform
	name     string
	meas     Measurement

	mu        sync.Mutex
	committed int64
	destroyed bool
}

// Launch creates an enclave from img, committing its initial secure memory.
func (p *Platform) Launch(img Image) (*Enclave, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.epcUsed+img.InitialPages > p.epcTotal {
		return nil, fmt.Errorf("%w: need %d, %d of %d in use", ErrEPCExhausted, img.InitialPages, p.epcUsed, p.epcTotal)
	}
	p.epcUsed += img.InitialPages
	return &Enclave{platform: p, name: img.Name, meas: Measure(img), committed: img.InitialPages}, nil
}

// Name returns the enclave's launch name.
func (e *Enclave) Name() string { return e.name }

// Measurement returns the enclave's code measurement.
func (e *Enclave) Measurement() Measurement { return e.meas }

// Platform returns the hosting platform.
func (e *Enclave) Platform() *Platform { return e.platform }

// Grow commits additional secure memory (requires EDMM on the platform).
func (e *Enclave) Grow(bytes int64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.destroyed {
		return ErrDestroyed
	}
	if !e.platform.features.DynamicMemory {
		return ErrNoEDMM
	}
	e.platform.mu.Lock()
	defer e.platform.mu.Unlock()
	if e.platform.epcUsed+bytes > e.platform.epcTotal {
		return fmt.Errorf("%w: need %d more", ErrEPCExhausted, bytes)
	}
	e.platform.epcUsed += bytes
	e.committed += bytes
	return nil
}

// Destroy releases the enclave's secure memory.
func (e *Enclave) Destroy() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.destroyed {
		return
	}
	e.destroyed = true
	e.platform.mu.Lock()
	e.platform.epcUsed -= e.committed
	e.platform.mu.Unlock()
	e.committed = 0
}

// EPCInUse reports the platform's current secure-memory consumption.
func (p *Platform) EPCInUse() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.epcUsed
}

// SealKey derives the enclave's sealing key (bound to measurement and
// platform secret, like SGX's MRENCLAVE-policy sealing).
func (e *Enclave) SealKey(context string) ([]byte, error) {
	key, err := hkdf.Key(sha256.New, e.platform.secret[:], e.meas[:], "mvtee-seal/"+context, 32)
	if err != nil {
		return nil, fmt.Errorf("enclave: seal key: %w", err)
	}
	return key, nil
}
