// Package teeos simulates the library TEE OS that hosts MVTEE's monitor and
// variants — the role Gramine-SGX/TDX plays in the paper's prototype (§5.2),
// including MVTEE's extensions: two-stage manifests with one-time post-launch
// installation, an exec()-triggered one-way stage transition with full state
// reset, syscall restrictions, and stage-1-only key installation for the
// encrypted filesystem.
package teeos

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/enclave"
	"repro/internal/manifest"
	"repro/internal/pfcrypt"
)

// FS is the untrusted host filesystem view. Contents fetched through it are
// verified (trusted files) or decrypted (encrypted files) before an
// application sees them.
type FS interface {
	Get(path string) ([]byte, error)
}

// MapFS is an in-memory FS.
type MapFS map[string][]byte

// Get implements FS.
func (m MapFS) Get(path string) ([]byte, error) {
	b, ok := m[path]
	if !ok {
		return nil, fmt.Errorf("teeos: host file %q not found", path)
	}
	return b, nil
}

// DirFS serves host files from a directory root (process-separated
// deployments reading a saved bundle).
type DirFS string

// Get implements FS, rejecting escapes from the root.
func (d DirFS) Get(path string) ([]byte, error) {
	clean := filepath.Clean(filepath.FromSlash(path))
	if filepath.IsAbs(clean) || strings.HasPrefix(clean, "..") {
		return nil, fmt.Errorf("teeos: path %q escapes bundle root", path)
	}
	b, err := os.ReadFile(filepath.Join(string(d), clean))
	if err != nil {
		return nil, fmt.Errorf("teeos: host file %q: %w", path, err)
	}
	return b, nil
}

// Errors.
var (
	ErrDenied         = errors.New("teeos: denied by manifest")
	ErrHashMismatch   = errors.New("teeos: trusted file hash mismatch")
	ErrStage          = errors.New("teeos: operation not permitted in this stage")
	ErrAlreadySet     = errors.New("teeos: second-stage manifest already installed")
	ErrNoSecondStage  = errors.New("teeos: no second-stage manifest installed")
	ErrTwoStageOff    = errors.New("teeos: two-stage manifests not enabled")
	ErrKeyMissing     = errors.New("teeos: no key installed for encrypted file")
	ErrWrongEntry     = errors.New("teeos: exec target does not match manifest entrypoint")
	ErrNotEncrypted   = errors.New("teeos: manifest mandates execution from encrypted files only")
	ErrSyscallBlocked = errors.New("teeos: syscall blocked by manifest")
)

// Stage identifies the two-stage bootstrap phase.
type Stage int

// Bootstrap stages.
const (
	StageInit Stage = 1 // init-variant running under the public manifest
	StageMain Stage = 2 // main variant running under the second-stage manifest
)

// OS is one TEE OS instance, enforcing a manifest inside an enclave.
type OS struct {
	encl *enclave.Enclave
	host FS

	mu           sync.Mutex
	stage        Stage
	man          *manifest.Manifest
	second       *manifest.Manifest
	secondDigest [32]byte
	keys         map[string]pfcrypt.KDK
	hostEnv      map[string]string
	openFiles    map[string]int // path -> open count (for state-reset bookkeeping)
	syscallLog   []string
	execCount    int
	// §6.5 hardening state.
	freshness     map[string][32]byte // encrypted-file rollback detection
	teeExceptions map[string]int      // pending TEE exceptions per signal
}

// New boots a TEE OS in encl with the stage-1 (public) manifest m over the
// host filesystem and host-provided environment.
func New(encl *enclave.Enclave, m *manifest.Manifest, host FS, hostEnv map[string]string) (*OS, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	env := make(map[string]string, len(hostEnv))
	for k, v := range hostEnv {
		env[k] = v
	}
	return &OS{
		encl:      encl,
		host:      host,
		stage:     StageInit,
		man:       m.Clone(),
		keys:      make(map[string]pfcrypt.KDK),
		hostEnv:   env,
		openFiles: make(map[string]int),
	}, nil
}

// Enclave returns the hosting enclave.
func (o *OS) Enclave() *enclave.Enclave { return o.encl }

// Stage returns the current bootstrap stage.
func (o *OS) Stage() Stage {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.stage
}

// Manifest returns the currently enforced manifest (a copy).
func (o *OS) Manifest() *manifest.Manifest {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.man.Clone()
}

// ReadFile opens a path through the manifest policy: encrypted files are
// decrypted with the installed key, trusted files are hash-verified, and
// everything else is denied.
func (o *OS) ReadFile(path string) ([]byte, error) {
	o.mu.Lock()
	man := o.man
	o.mu.Unlock()

	raw, err := o.host.Get(path)
	if err != nil {
		return nil, err
	}
	if man.IsEncrypted(path) {
		o.mu.Lock()
		kdk, ok := o.keys["default"]
		o.mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrKeyMissing, path)
		}
		if err := o.checkFreshness(path, raw); err != nil {
			return nil, err
		}
		pt, err := pfcrypt.Decrypt(kdk, path, raw)
		if err != nil {
			return nil, fmt.Errorf("teeos: %q: %w", path, err)
		}
		o.noteOpen(path)
		return pt, nil
	}
	if want, ok := man.TrustedFiles[path]; ok {
		sum := sha256.Sum256(raw)
		if hex.EncodeToString(sum[:]) != want {
			return nil, fmt.Errorf("%w: %q", ErrHashMismatch, path)
		}
		o.noteOpen(path)
		return raw, nil
	}
	return nil, fmt.Errorf("%w: file %q not in trusted or encrypted sets", ErrDenied, path)
}

func (o *OS) noteOpen(path string) {
	o.mu.Lock()
	o.openFiles[path]++
	o.mu.Unlock()
}

// Syscall gates a named syscall through the manifest allowlist and records
// it for host/TEE cross-verification (§6.5 "additional variant hardening").
func (o *OS) Syscall(name string) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if !o.man.SyscallAllowed(name) {
		return fmt.Errorf("%w: %q (stage %d)", ErrSyscallBlocked, name, o.stage)
	}
	o.syscallLog = append(o.syscallLog, name)
	return nil
}

// SyscallLog returns a copy of the recorded syscall trace.
func (o *OS) SyscallLog() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]string(nil), o.syscallLog...)
}

// Getenv returns a host environment variable if the manifest allows it.
func (o *OS) Getenv(name string) (string, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if !o.man.EnvAllowed(name) {
		return "", fmt.Errorf("%w: env %q", ErrDenied, name)
	}
	return o.hostEnv[name], nil
}

// InstallKey installs the variant-specific key-derivation key used by the
// encrypted filesystem. Key manipulation is prohibited in the second stage.
func (o *OS) InstallKey(kdk pfcrypt.KDK) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.stage != StageInit {
		return fmt.Errorf("%w: key installation only in stage 1", ErrStage)
	}
	o.keys["default"] = append(pfcrypt.KDK(nil), kdk...)
	return nil
}

// InstallSecondStage installs the second-stage manifest through the TEE OS's
// pseudo-filesystem interface. The installation is one-time: once set it is
// locked, unmodifiable, and the interface is dead for the main variant.
// It returns the manifest digest as installation evidence for attestation.
func (o *OS) InstallSecondStage(manifestBytes []byte) ([32]byte, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.stage != StageInit {
		return [32]byte{}, fmt.Errorf("%w: installation interface disabled after exec", ErrStage)
	}
	if !o.man.TwoStage {
		return [32]byte{}, ErrTwoStageOff
	}
	if o.second != nil {
		return [32]byte{}, ErrAlreadySet
	}
	m, err := manifest.Unmarshal(manifestBytes)
	if err != nil {
		return [32]byte{}, err
	}
	o.second = m
	o.secondDigest = sha256.Sum256(manifestBytes)
	return o.secondDigest, nil
}

// SecondStageDigest returns the evidence digest of the installed manifest.
func (o *OS) SecondStageDigest() ([32]byte, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.second == nil {
		return [32]byte{}, ErrNoSecondStage
	}
	return o.secondDigest, nil
}

// Exec performs the one-way stage transition triggered by the init-variant's
// first exec() (§5.2). The TEE OS resets all applicable state — open files,
// environment, syscall history — before enforcing the second-stage manifest,
// so the two stages are completely independent. The target must match the
// second-stage entrypoint, and, when mandated, be an encrypted file.
func (o *OS) Exec(target string) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.stage != StageInit {
		return fmt.Errorf("%w: exec transition already performed", ErrStage)
	}
	if o.man.TwoStage && o.second == nil {
		return ErrNoSecondStage
	}
	next := o.man
	if o.second != nil {
		next = o.second
	}
	if target != next.Entrypoint {
		return fmt.Errorf("%w: %q != %q", ErrWrongEntry, target, next.Entrypoint)
	}
	if next.ExecFromEncryptedOnly && !next.IsEncrypted(target) {
		return fmt.Errorf("%w: %q", ErrNotEncrypted, target)
	}
	// State reset: the simulated analogue of zeroing VMAs, closing file
	// descriptors, resetting brk/TLS/signal handlers and unloading ELF
	// objects from the init stage.
	o.openFiles = make(map[string]int)
	o.syscallLog = nil
	o.hostEnv = make(map[string]string)
	o.teeExceptions = nil // signal state cleared with the handlers
	o.stage = StageMain
	o.man = next
	o.second = nil
	o.execCount++
	return nil
}

// OpenFileCount reports currently tracked file opens (used by tests to
// verify the state reset).
func (o *OS) OpenFileCount() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	n := 0
	for _, c := range o.openFiles {
		n += c
	}
	return n
}
