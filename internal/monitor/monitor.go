package monitor

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/attest"
	"repro/internal/check"
	"repro/internal/enclave"
	"repro/internal/securechan"
	"repro/internal/transcript"
	"repro/internal/wire"
)

// Assignment instructs the monitor how to initialize one variant TEE from
// the pre-established pool (Figure 6 steps 4–7): its identity, partition,
// variant-specific key, encrypted file set, and the expected second-stage
// manifest evidence.
type Assignment struct {
	VariantID  string
	Partition  int
	Spec       string
	KDK        []byte
	Manifest   string   // host path of the encrypted second-stage manifest
	Files      []string // host paths of the encrypted variant files
	Entrypoint string
	// Evidence is the expected second-stage manifest digest; the variant's
	// installation report must match it.
	Evidence [32]byte
}

// BindingRecord is one entry of the monitor's append-only binding log
// (§4.3: partial updates append bindings for auditing).
type BindingRecord struct {
	VariantID string
	Partition int
	Spec      string
	Evidence  [32]byte
	Bound     time.Time
	Replaced  bool // superseded by a later update
}

// spareEntry is one pre-established spare variant TEE (Figure 6): an attested
// channel plus the assignment to replay when the spare is promoted into a
// dead slot.
type spareEntry struct {
	conn securechan.Conn
	a    Assignment
}

// Monitor is the MVTEE monitor TEE: trust anchor, key distributor and MVX
// execution manager.
type Monitor struct {
	encl     *enclave.Enclave
	verifier *enclave.Verifier

	mu       sync.Mutex
	cfg      *MVXConfig
	keys     map[string][]byte // owner-provisioned pool keys (entry key -> KDK)
	handles  map[string]*Handle
	bindings []BindingRecord
	spares   []spareEntry
	nonce    []byte // provisioning nonce (anti-replay, echoed in results)
	engine   *Engine
	// spareFactory provisions one new pre-attested spare on demand (the
	// adaptive controller's scale-up hook); nil when the deployment cannot
	// synthesize spares (process-separated monitors).
	spareFactory func(partition int) error
	// digestSink, when set before BuildEngine, taps every per-checkpoint
	// digest the engine computes (cluster replicas stream these to the
	// router's early-dissent plane).
	digestSink func(batchID uint64, stage int, digest check.Digest)
	// transcript, when set before BuildEngine, receives one finished batch
	// per clean delivery from every subsequently built engine.
	transcript *transcript.Recorder
}

// New creates a monitor running in encl, trusting the platforms registered
// in verifier.
func New(encl *enclave.Enclave, verifier *enclave.Verifier) *Monitor {
	return &Monitor{encl: encl, verifier: verifier, handles: make(map[string]*Handle)}
}

// Enclave returns the monitor's enclave (for attestation by the owner).
func (m *Monitor) Enclave() *enclave.Enclave { return m.encl }

// Provision installs the owner's MVX configuration (Figure 6 step 3). The
// nonce protects the provisioning round against replay and is echoed in the
// initialization results.
func (m *Monitor) Provision(p *wire.Provision) error {
	cfg, err := ParseConfig(p.Config)
	if err != nil {
		return err
	}
	if len(p.Nonce) == 0 {
		return fmt.Errorf("%w: missing provisioning nonce", ErrConfig)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cfg = cfg
	m.nonce = append([]byte(nil), p.Nonce...)
	if p.Keys != nil {
		m.keys = make(map[string][]byte, len(p.Keys))
		for k, v := range p.Keys {
			m.keys[k] = append([]byte(nil), v...)
		}
	}
	return nil
}

// KeyFor returns the owner-provisioned KDK for a pool entry key, when keys
// were provisioned over the channel (process-separated deployments).
func (m *Monitor) KeyFor(entryKey string) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	k, ok := m.keys[entryKey]
	return k, ok
}

// Config returns the provisioned MVX configuration.
func (m *Monitor) Config() *MVXConfig {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cfg
}

// Binding errors.
var (
	ErrEvidence  = errors.New("monitor: second-stage evidence mismatch")
	ErrBindState = errors.New("monitor: unexpected message during binding")
)

// Bind runs the monitor side of the variant initialization protocol over an
// established (attested) channel: key distribution (step 5), installation
// evidence verification (step 6), and binding confirmation (step 7). On
// success the variant is recorded in the append-only binding log and ready
// for engine wiring.
func (m *Monitor) Bind(conn securechan.Conn, a Assignment) (*Handle, error) {
	return m.bindResume(conn, a, 0)
}

// bindResume is Bind with a resume point: hot replacement binds a spare
// mid-run and tells it the first batch ID it will serve (§2.4 recover), so
// the variant knows earlier IDs belonged to its predecessor.
func (m *Monitor) bindResume(conn securechan.Conn, a Assignment, resume uint64) (*Handle, error) {
	if err := wire.Send(conn, &wire.AssignKey{
		VariantID:  a.VariantID,
		Partition:  a.Partition,
		KDK:        a.KDK,
		ManifestPB: []byte(a.Manifest),
		Files:      a.Files,
		Entrypoint: a.Entrypoint,
	}); err != nil {
		return nil, fmt.Errorf("monitor: assign key to %s: %w", a.VariantID, err)
	}
	msg, err := wire.Recv(conn)
	if err != nil {
		return nil, fmt.Errorf("monitor: await installation of %s: %w", a.VariantID, err)
	}
	inst, ok := msg.(*wire.Installed)
	if !ok {
		if e, isErr := msg.(*wire.Error); isErr {
			return nil, fmt.Errorf("monitor: variant %s bootstrap: %s", a.VariantID, e.Message)
		}
		return nil, fmt.Errorf("%w: got %T", ErrBindState, msg)
	}
	if inst.VariantID != a.VariantID {
		return nil, fmt.Errorf("%w: identity %q != %q", ErrBindState, inst.VariantID, a.VariantID)
	}
	if !bytes.Equal(inst.Evidence[:], a.Evidence[:]) {
		return nil, fmt.Errorf("%w: variant %s", ErrEvidence, a.VariantID)
	}
	if err := wire.Send(conn, &wire.Bound{VariantID: a.VariantID, Resume: resume}); err != nil {
		return nil, fmt.Errorf("monitor: confirm binding of %s: %w", a.VariantID, err)
	}

	h := NewHandle(a.VariantID, a.Partition, a.Spec, conn)
	h.evidence = inst.Evidence
	if sc, isSecure := conn.(*securechan.SecureConn); isSecure {
		h.report = sc.PeerReport()
	}
	m.mu.Lock()
	m.handles[a.VariantID] = h
	m.bindings = append(m.bindings, BindingRecord{
		VariantID: a.VariantID, Partition: a.Partition, Spec: a.Spec,
		Evidence: inst.Evidence, Bound: time.Now(),
	})
	m.mu.Unlock()
	return h, nil
}

// Bindings returns a copy of the append-only binding log.
func (m *Monitor) Bindings() []BindingRecord {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]BindingRecord(nil), m.bindings...)
}

// BindingsDigest returns the canonical digest of the current binding log —
// the value transcript tree heads chain so variant membership history is
// part of what every signed head attests.
func (m *Monitor) BindingsDigest() [32]byte {
	return DigestBindings(m.Bindings())
}

// DigestBindings canonically digests a binding log: length-prefixed fields
// in record order (the log is append-only, so the order is the history).
// Offline verifiers recompute it from the records served at /audit.
func DigestBindings(recs []BindingRecord) [32]byte {
	h := sha256.New()
	h.Write([]byte("mvtee-bindings-v1"))
	var scratch [8]byte
	writeStr := func(s string) {
		binary.LittleEndian.PutUint64(scratch[:], uint64(len(s)))
		h.Write(scratch[:])
		h.Write([]byte(s))
	}
	binary.LittleEndian.PutUint64(scratch[:], uint64(len(recs)))
	h.Write(scratch[:])
	for _, r := range recs {
		writeStr(r.VariantID)
		binary.LittleEndian.PutUint64(scratch[:], uint64(int64(r.Partition)))
		h.Write(scratch[:])
		writeStr(r.Spec)
		h.Write(r.Evidence[:])
		binary.LittleEndian.PutUint64(scratch[:], uint64(r.Bound.UnixNano()))
		h.Write(scratch[:])
		if r.Replaced {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	var d [32]byte
	h.Sum(d[:0])
	return d
}

// AddSpare registers a pre-established spare variant TEE (Figure 6): the
// channel is already attested, but the assignment is only replayed — key
// distribution, evidence check, binding — when a Recover response promotes
// the spare into a dead slot. An Assignment with Partition < 0 can fill any
// stage.
func (m *Monitor) AddSpare(conn securechan.Conn, a Assignment) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.spares = append(m.spares, spareEntry{conn: conn, a: a})
}

// SpareCount returns the number of unclaimed spares.
func (m *Monitor) SpareCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.spares)
}

// SetSpareFactory installs the provisioning hook ProvisionSpare calls to
// bring up one new pre-attested spare for a partition (-1 = any). The
// factory performs the launch/attest/connect work and registers the result
// via AddSpare; in-process deployments wire core.Deployment's spare
// launcher here. A nil factory (the default) makes ProvisionSpare a no-op
// error — process-separated monitors receive spares over the network and
// cannot synthesize them.
func (m *Monitor) SetSpareFactory(f func(partition int) error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.spareFactory = f
}

// SetDigestSink installs the per-checkpoint digest tap subsequently built
// engines carry (EngineConfig.DigestSink). Cluster replica daemons wire this
// to their active router connection; call it before BuildEngine.
func (m *Monitor) SetDigestSink(f func(batchID uint64, stage int, digest check.Digest)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.digestSink = f
}

// SetTranscript installs the verifiable-inference transcript recorder
// subsequently built engines feed (EngineConfig.Transcript). Call it before
// BuildEngine, typically with a recorder whose signer is this monitor's
// enclave and whose bindings callback is BindingsDigest.
func (m *Monitor) SetTranscript(rec *transcript.Recorder) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.transcript = rec
}

// ErrNoSpareFactory rejects ProvisionSpare on monitors without a factory.
var ErrNoSpareFactory = errors.New("monitor: no spare factory configured")

// ProvisionSpare grows the pre-attested spare pool by one (the adaptive
// controller's scale-up actuator). The launch runs without the monitor lock.
func (m *Monitor) ProvisionSpare(partition int) error {
	m.mu.Lock()
	f := m.spareFactory
	m.mu.Unlock()
	if f == nil {
		return ErrNoSpareFactory
	}
	if err := f(partition); err != nil {
		return err
	}
	m.mu.Lock()
	eng, n := m.engine, len(m.spares)
	m.mu.Unlock()
	if eng != nil {
		eng.recordEvent(Event{Kind: EventSpareProvisioned, Stage: partition,
			Detail: fmt.Sprintf("spare pool grew to %d", n)})
	}
	return nil
}

// RetireSpare shrinks the spare pool by one (the controller's scale-down
// actuator): the most recently added unclaimed spare is removed and its
// channel closed, releasing the idle TEE's resources. Returns false when the
// pool is empty.
func (m *Monitor) RetireSpare() bool {
	m.mu.Lock()
	n := len(m.spares)
	if n == 0 {
		m.mu.Unlock()
		return false
	}
	sp := m.spares[n-1]
	m.spares = m.spares[:n-1]
	m.mu.Unlock()
	_ = sp.conn.Close()
	return true
}

// takeSpare pops the first spare eligible for the partition.
func (m *Monitor) takeSpare(partition int) (spareEntry, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, sp := range m.spares {
		if sp.a.Partition != partition && sp.a.Partition >= 0 {
			continue
		}
		m.spares = append(m.spares[:i], m.spares[i+1:]...)
		sp.a.Partition = partition
		return sp, true
	}
	return spareEntry{}, false
}

// retire closes a dead variant's channel, forgets its handle, and marks its
// binding Replaced — the record stays in the append-only log.
func (m *Monitor) retire(variantID string) {
	m.mu.Lock()
	h, ok := m.handles[variantID]
	if ok {
		delete(m.handles, variantID)
	}
	for i := range m.bindings {
		if m.bindings[i].VariantID == variantID && !m.bindings[i].Replaced {
			m.bindings[i].Replaced = true
		}
	}
	m.mu.Unlock()
	if ok {
		h.shutdown()
	}
}

// replaceVariant is the monitor's ReplaceFunc (§2.4 recover): it retires the
// dead variant and binds the first working spare for the partition, resuming
// at the checkpoint after sinceBatch. The engine's replacer goroutine calls
// this off the checkpoint path; binding IO runs without the monitor lock.
func (m *Monitor) replaceVariant(stage, slot int, deadID string, sinceBatch uint64) (*Handle, error) {
	m.retire(deadID)
	for {
		sp, ok := m.takeSpare(stage)
		if !ok {
			return nil, fmt.Errorf("monitor: no spare for partition %d (replacing %s)", stage, deadID)
		}
		h, err := m.bindResume(sp.conn, sp.a, sinceBatch+1)
		if err != nil {
			// Burn the failed spare and try the next.
			_ = sp.conn.Close()
			continue
		}
		return h, nil
	}
}

// Nonce returns the provisioning nonce for echoing in initialization results
// (Figure 6 step 8).
func (m *Monitor) Nonce() []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]byte(nil), m.nonce...)
}

// CombinedAttestation performs the user-facing combined attestation of §4.3:
// the monitor reports on itself and challenges every bound variant with the
// user's nonce. Call before the engine starts (the control channel is reused
// for the data plane afterwards).
func (m *Monitor) CombinedAttestation(nonce []byte) (*attest.Bundle, error) {
	m.mu.Lock()
	if m.engine != nil && m.engine.Started() {
		m.mu.Unlock()
		return nil, errors.New("monitor: combined attestation must run before the engine starts")
	}
	handles := make([]*Handle, 0, len(m.handles))
	for _, h := range m.handles {
		handles = append(handles, h)
	}
	m.mu.Unlock()

	self, err := attest.Respond(m.encl, nonce, "monitor")
	if err != nil {
		return nil, fmt.Errorf("monitor: self attestation: %w", err)
	}
	b := &attest.Bundle{Monitor: self, Variants: make(map[string]*enclave.Report, len(handles))}
	for _, h := range handles {
		if err := wire.Send(h.conn, &wire.AttestReq{Nonce: nonce, Context: "variant/" + h.ID()}); err != nil {
			return nil, fmt.Errorf("monitor: challenge %s: %w", h.ID(), err)
		}
		msg, err := wire.Recv(h.conn)
		if err != nil {
			return nil, fmt.Errorf("monitor: attest %s: %w", h.ID(), err)
		}
		resp, ok := msg.(*wire.AttestResp)
		if !ok {
			return nil, fmt.Errorf("%w: got %T", ErrBindState, msg)
		}
		rep, err := enclave.UnmarshalReport(resp.Report)
		if err != nil {
			return nil, fmt.Errorf("monitor: attest %s: %w", h.ID(), err)
		}
		if err := attest.Check(m.verifier, rep, nonce, "variant/"+h.ID(), nil); err != nil {
			return nil, fmt.Errorf("monitor: attest %s: %w", h.ID(), err)
		}
		b.Variants[h.ID()] = rep
	}
	return b, nil
}

// BuildEngine wires the bound handles into an execution engine according to
// the provisioned configuration and the partition boundary interfaces.
// stages[i] must carry the boundary names for partition i; its Handles field
// is filled in here from the binding log.
func (m *Monitor) BuildEngine(graphInputs, graphOutputs []string, stages []StageSpec) (*Engine, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cfg == nil {
		return nil, fmt.Errorf("%w: not provisioned", ErrConfig)
	}
	if len(stages) != len(m.cfg.Plans) {
		return nil, fmt.Errorf("%w: %d stages vs %d plans", ErrConfig, len(stages), len(m.cfg.Plans))
	}
	for i := range stages {
		stages[i].Handles = nil
	}
	// Walk the binding log, not the handle map: map iteration order would
	// give every engine its own random per-stage handle order, and the vote's
	// representative output (the first member of the winning cluster, in
	// handle order) would differ between engines built from identical
	// bundles. Cluster replicas cross-check results by digest, so handle
	// order must be a pure function of binding history.
	seen := make(map[string]bool, len(m.handles))
	for _, rec := range m.bindings {
		h, ok := m.handles[rec.VariantID]
		if !ok || seen[rec.VariantID] || h.Dropped() {
			continue
		}
		seen[rec.VariantID] = true
		if h.Partition() < 0 || h.Partition() >= len(stages) {
			return nil, fmt.Errorf("%w: handle %s bound to partition %d", ErrConfig, h.ID(), h.Partition())
		}
		stages[h.Partition()].Handles = append(stages[h.Partition()].Handles, h)
	}
	cfg := m.cfg.withDefaults()
	ecfg := EngineConfig{
		GraphInputs:    graphInputs,
		GraphOutputs:   graphOutputs,
		Stages:         stages,
		Policy:         m.cfg.Policy(),
		Vote:           cfg.Vote,
		Async:          cfg.Async,
		Response:       cfg.Response,
		StageTimeout:   time.Duration(cfg.StageTimeoutMS) * time.Millisecond,
		InflightWindow: cfg.InflightWindow,
		DigestSink:     m.digestSink,
		Transcript:     m.transcript,
	}
	if cfg.Response == Recover {
		// Hot replacement is policy (Recover), the engine only carries the
		// mechanism: dead slots are refilled from the spare pool.
		ecfg.Replace = m.replaceVariant
	}
	eng, err := NewEngine(ecfg)
	if err != nil {
		return nil, err
	}
	m.engine = eng
	return eng, nil
}

// Unbind marks a variant's binding record replaced (partial updates) and
// forgets its handle. The record itself stays in the log.
func (m *Monitor) Unbind(variantID string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if h, ok := m.handles[variantID]; ok {
		h.shutdown()
		delete(m.handles, variantID)
	}
	for i := range m.bindings {
		if m.bindings[i].VariantID == variantID && !m.bindings[i].Replaced {
			m.bindings[i].Replaced = true
		}
	}
	m.engine = nil // engine must be rebuilt after membership changes
}

// ResetEngine detaches the current engine so a new one can be built after
// updates.
func (m *Monitor) ResetEngine() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.engine = nil
}
