package core

import (
	"fmt"
	"net"
	"sync"

	"repro/internal/attest"
	"repro/internal/diversify"
	"repro/internal/enclave"
	"repro/internal/graph"
	"repro/internal/infer"
	"repro/internal/models"
	"repro/internal/monitor"
	"repro/internal/partition"
	"repro/internal/securechan"
	"repro/internal/teeos"
	"repro/internal/tensor"
	"repro/internal/variant"
	"repro/internal/wire"
)

// Transport selects how monitor and variants are connected in an in-process
// deployment.
type Transport int

// Transports.
const (
	// InProc connects TEEs over in-memory pipes.
	InProc Transport = iota + 1
	// TCPLoopback connects TEEs over real localhost TCP sockets (the
	// closest in-process analogue to the paper's co-located setup).
	TCPLoopback
)

// epcBytes sizes each simulated platform's secure memory: 128 GiB, the
// paper's testbed EPC.
const epcBytes = 128 << 30

// DeployConfig drives the online phase.
type DeployConfig struct {
	// MVX is the runtime-provisioned configuration (partition set choice,
	// variant claims, execution policy).
	MVX *monitor.MVXConfig
	// Transport selects the interconnect; zero means InProc.
	Transport Transport
	// Encrypt enables the RA-TLS-style secure channels (default in the
	// paper; disable only for the Figure 10 no-encryption baseline).
	Encrypt bool
	// VariantOptions, if set, customizes each variant's construction —
	// the hook fault-injection experiments use.
	VariantOptions func(variantID string, e Entry) variant.Options
	// DeferEngineStart leaves the engine stopped so the user can run the
	// combined attestation of all TEEs (Figure 6) before provisioning
	// inputs; call Deployment.Start afterwards.
	DeferEngineStart bool
}

// Deployment is a running MVTEE system.
type Deployment struct {
	Monitor *monitor.Monitor
	Engine  *monitor.Engine
	Bundle  *Bundle
	SetIdx  int

	cfg       DeployConfig
	monEncl   *enclave.Enclave
	platforms map[enclave.TEEType]*enclave.Platform
	verifier  *enclave.Verifier
	enclaves  []*enclave.Enclave
	wg        sync.WaitGroup
	closers   []func()

	// spareMu serializes post-deploy spare provisioning (the adaptive
	// controller's scale-up hook) against itself; Deploy-time bring-up is
	// single-threaded and does not take it.
	spareMu  sync.Mutex
	spareSeq int
}

// platform returns (creating on first use) the simulated machine for a TEE
// type, registering it as a trust anchor.
func (d *Deployment) platform(tt enclave.TEEType) (*enclave.Platform, error) {
	if p, ok := d.platforms[tt]; ok {
		return p, nil
	}
	p, err := enclave.NewPlatform(fmt.Sprintf("plat-%s", tt), tt, epcBytes)
	if err != nil {
		return nil, err
	}
	d.platforms[tt] = p
	d.verifier.Trust(p)
	return p, nil
}

// launch brings up one variant TEE for the pool entry and connects it to the
// monitor. A claimed variant runs the bootstrap/binding protocol (Figure 6);
// a spare registers without binding and idles in stage-1 bootstrap until a
// Recover response promotes it into a dead slot (§2.4).
func (d *Deployment) launch(c Claim) error {
	b := d.Bundle
	kdk, ok := b.Keys[c.Entry]
	if !ok {
		return fmt.Errorf("core: no pool entry %+v", c.Entry)
	}
	spec, err := findSpec(b, c.Entry.Spec)
	if err != nil {
		return err
	}
	tt, err := spec.TEEType()
	if err != nil {
		return err
	}
	plat, err := d.platform(tt)
	if err != nil {
		return err
	}
	vEncl, err := plat.Launch(variantImage(b.InitBinary))
	if err != nil {
		return err
	}
	d.enclaves = append(d.enclaves, vEncl)
	vos, err := teeos.New(vEncl, b.InitManifest, b.FS, nil)
	if err != nil {
		return err
	}
	monConn, varConn, err := d.connect(d.cfg, d.monEncl, vEncl, d.verifier)
	if err != nil {
		return err
	}
	// Ensure Close unblocks the variant goroutine even when bring-up fails
	// before the engine exists (Engine.Stop normally closes these).
	d.closers = append(d.closers, func() {
		_ = monConn.Close()
		_ = varConn.Close()
	})
	var vopts variant.Options
	if d.cfg.VariantOptions != nil {
		vopts = d.cfg.VariantOptions(c.ID, c.Entry)
	}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		_ = variant.Run(varConn, vos, vopts) // terminates on Shutdown or conn close
	}()
	a := c.Entry.Assignment(c.ID, kdk, b.Evidence[c.Entry])
	if c.Spare {
		d.Monitor.AddSpare(monConn, a)
		return nil
	}
	if _, err := d.Monitor.Bind(monConn, a); err != nil {
		return fmt.Errorf("core: bind %s: %w", c.ID, err)
	}
	return nil
}

// Provision is owner provisioning (Figure 6 steps 2–3) from a locally held
// configuration: the MVX configuration under a fresh anti-replay nonce.
func Provision(mon *monitor.Monitor, mvx *monitor.MVXConfig) error {
	nonce, err := attest.NewNonce()
	if err != nil {
		return err
	}
	cfgJSON, err := mvx.Marshal()
	if err != nil {
		return err
	}
	return mon.Provision(&wire.Provision{Nonce: nonce, Config: cfgJSON})
}

// CheckPlans checks that setIdx names one of the partition sets and that
// mvx claims one plan per partition of it.
func CheckPlans(sets []*partition.Set, setIdx int, mvx *monitor.MVXConfig) error {
	if setIdx < 0 || setIdx >= len(sets) {
		return fmt.Errorf("core: partition set %d out of range (%d sets)", setIdx, len(sets))
	}
	if n := len(sets[setIdx].Partitions); len(mvx.Plans) != n {
		return fmt.Errorf("core: %d plans for %d partitions", len(mvx.Plans), n)
	}
	return nil
}

// Claim is one variant TEE an MVX configuration asks for.
type Claim struct {
	ID    string
	Entry Entry
	// Spare registers the variant idle instead of binding it.
	Spare bool
}

// Claims flattens the configuration's variant plans, then its spare plans,
// into launch order on partition set set.
func Claims(set int, mvx *monitor.MVXConfig) []Claim {
	var cs []Claim
	add := func(prefix string, plans []monitor.PartitionPlan, spare bool) {
		for pi, plan := range plans {
			for vi, spec := range plan.Variants {
				cs = append(cs, Claim{
					ID:    fmt.Sprintf("%sp%d-%s-%d", prefix, pi, spec, vi),
					Entry: Entry{Set: set, Partition: pi, Spec: spec},
					Spare: spare,
				})
			}
		}
	}
	add("", mvx.Plans, false)
	add("spare-", mvx.Spares, true)
	return cs
}

// nextSpare picks the pool entry for the seq-th on-demand spare of a
// partition (a negative partition means stage 0): the spec comes from the
// partition's spare plan when one is configured, else from its variant plan,
// cycling through the specs so successive spares stay heterogeneous.
func nextSpare(mvx *monitor.MVXConfig, set, partition, seq int) (Claim, error) {
	if partition < 0 {
		partition = 0
	}
	if partition >= len(mvx.Plans) {
		return Claim{}, fmt.Errorf("core: partition %d out of range", partition)
	}
	specs := mvx.Plans[partition].Variants
	if partition < len(mvx.Spares) && len(mvx.Spares[partition].Variants) > 0 {
		specs = mvx.Spares[partition].Variants
	}
	if len(specs) == 0 {
		return Claim{}, fmt.Errorf("core: partition %d has no specs to provision from", partition)
	}
	spec := specs[seq%len(specs)]
	return Claim{
		ID:    fmt.Sprintf("autospare-p%d-%s-%d", partition, spec, seq),
		Entry: Entry{Set: set, Partition: partition, Spec: spec},
		Spare: true,
	}, nil
}

// variantImage is the launch image every variant TEE boots: the measured
// init-variant payload (stage 1 of the two-stage bootstrap).
func variantImage(initBinary []byte) enclave.Image {
	return enclave.Image{Name: "mvtee-variant", Code: initBinary, InitialPages: 64 << 20}
}

// BuildEngine wires the monitor's bound variants into an execution engine
// (not started) for a partition set of a model with the given interface.
func BuildEngine(mon *monitor.Monitor, set *partition.Set, inputs []graph.ValueInfo, outputs []string) (*monitor.Engine, error) {
	stages := make([]monitor.StageSpec, len(set.Partitions))
	for pi, p := range set.Partitions {
		for _, in := range p.Inputs {
			stages[pi].Inputs = append(stages[pi].Inputs, in.Name)
		}
		for _, out := range p.Outputs {
			stages[pi].Outputs = append(stages[pi].Outputs, out.Name)
		}
	}
	gin := make([]string, len(inputs))
	for i, vi := range inputs {
		gin[i] = vi.Name
	}
	return mon.BuildEngine(gin, outputs, stages)
}

// ProvisionSpare launches one additional pre-attested spare for a partition
// (the adaptive controller's spare-pool scale-up actuator; Deploy wires it
// as the monitor's spare factory); see nextSpare for the spec choice.
func (d *Deployment) ProvisionSpare(partition int) error {
	d.spareMu.Lock()
	defer d.spareMu.Unlock()
	d.spareSeq++
	c, err := nextSpare(d.cfg.MVX, d.SetIdx, partition, d.spareSeq)
	if err != nil {
		return err
	}
	return d.launch(c)
}

// Deploy brings up the full system on partition set setIdx of the bundle:
// monitor TEE, variant TEEs per the MVX plan, attested bootstrap, binding,
// and a started execution engine.
func Deploy(b *Bundle, setIdx int, cfg DeployConfig) (*Deployment, error) {
	if cfg.MVX == nil {
		return nil, fmt.Errorf("core: missing MVX config")
	}
	if err := CheckPlans(b.Sets, setIdx, cfg.MVX); err != nil {
		return nil, err
	}
	if cfg.Transport == 0 {
		cfg.Transport = InProc
	}

	d := &Deployment{Bundle: b, SetIdx: setIdx, cfg: cfg, platforms: make(map[enclave.TEEType]*enclave.Platform)}
	d.verifier = enclave.NewVerifier()

	// Monitor TEE: small, integrity-enhanced (§6.5 recommends SGX1 for the
	// minimalistic monitor).
	monPlat, err := d.platform(enclave.SGX1)
	if err != nil {
		return nil, err
	}
	monEncl, err := monPlat.Launch(MonitorImage())
	if err != nil {
		return nil, err
	}
	d.monEncl = monEncl
	d.enclaves = append(d.enclaves, monEncl)
	mon := monitor.New(monEncl, d.verifier)
	d.Monitor = mon

	if err := Provision(mon, cfg.MVX); err != nil {
		d.Close()
		return nil, err
	}

	// Variant TEEs per claim, then the spares (pre-established, bound on
	// promotion).
	for _, c := range Claims(setIdx, cfg.MVX) {
		if err := d.launch(c); err != nil {
			d.Close()
			return nil, err
		}
	}
	// In-process deployments can synthesize further spares on demand; the
	// adaptive controller autoscales the pool through this hook.
	mon.SetSpareFactory(d.ProvisionSpare)

	eng, err := d.RebuildEngine()
	if err != nil {
		d.Close()
		return nil, err
	}
	if !cfg.DeferEngineStart {
		eng.Start()
	}
	return d, nil
}

// RebindVariant launches a fresh variant TEE for the pool entry and binds it
// under variantID — the partial-update path of §4.3 (TEEs are never reused;
// updates replace them). Stop the engine and Unbind the old variant first,
// then RebuildEngine.
func (d *Deployment) RebindVariant(variantID string, e Entry) error {
	return d.launch(Claim{ID: variantID, Entry: e})
}

// FullUpdate performs the full variant update of §4.3: it quiesces the
// engine, retires every bound variant (TEEs are never reused), reshuffles to
// partition set newSetIdx with the given plans, launches and binds an
// all-new variant fleet, and starts a fresh engine. The binding log keeps
// the retired generation's records (marked replaced) for auditing.
func (d *Deployment) FullUpdate(newSetIdx int, mvx *monitor.MVXConfig) error {
	if err := CheckPlans(d.Bundle.Sets, newSetIdx, mvx); err != nil {
		return err
	}
	if d.Engine != nil {
		d.Engine.StopKeepVariants()
	}
	for _, rec := range d.Monitor.Bindings() {
		if !rec.Replaced {
			d.Monitor.Unbind(rec.VariantID)
		}
	}
	if err := Provision(d.Monitor, mvx); err != nil {
		return err
	}
	d.SetIdx = newSetIdx
	gen := len(d.Monitor.Bindings()) // uniquify the new generation's IDs
	for _, c := range Claims(newSetIdx, mvx) {
		if c.Spare {
			continue
		}
		c.ID = fmt.Sprintf("g%d-%s", gen, c.ID)
		if err := d.launch(c); err != nil {
			return err
		}
	}
	eng, err := d.RebuildEngine()
	if err != nil {
		return err
	}
	eng.Start()
	return nil
}

// RebuildEngine rewires the execution engine from the monitor's current
// bindings (after initial bring-up or membership updates). The returned
// engine is not started.
func (d *Deployment) RebuildEngine() (*monitor.Engine, error) {
	d.Monitor.ResetEngine()
	eng, err := BuildEngine(d.Monitor, d.Bundle.Sets[d.SetIdx], d.Bundle.Model.Inputs, d.Bundle.Model.Outputs)
	if err != nil {
		return nil, err
	}
	d.Engine = eng
	return eng, nil
}

// Start launches the execution engine (no-op if already running). Use with
// DeferEngineStart after the user's combined attestation.
func (d *Deployment) Start() { d.Engine.Start() }

// Verifier returns the deployment's trust anchors (for user-side report
// verification in examples and tests).
func (d *Deployment) Verifier() *enclave.Verifier { return d.verifier }

// PlatformIdentity exports the public identity of the platform that launched
// the monitor enclave. In-process deployments synthesize their platform at
// Deploy time, so transcript auditors have no bundle file to pin against;
// this is the identity the /audit surface publishes for trust-on-first-use
// verification.
func (d *Deployment) PlatformIdentity() ([]byte, error) {
	p, ok := d.platforms[enclave.SGX1]
	if !ok {
		return nil, fmt.Errorf("core: monitor platform not launched")
	}
	return p.ExportPublic()
}

func findSpec(b *Bundle, name string) (diversify.Spec, error) {
	for _, s := range b.Specs {
		if s.Name == name {
			return s, nil
		}
	}
	return diversify.Spec{}, fmt.Errorf("core: unknown spec %q", name)
}

// connect establishes the monitor<->variant channel pair per the transport
// and encryption settings, performing the mutual RA-TLS handshake when
// encryption is on.
func (d *Deployment) connect(cfg DeployConfig, monEncl, varEncl *enclave.Enclave, verifier *enclave.Verifier) (securechan.Conn, securechan.Conn, error) {
	var rawMon, rawVar net.Conn
	switch cfg.Transport {
	case InProc:
		rawMon, rawVar = bufferedPipe()
	case TCPLoopback:
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, nil, fmt.Errorf("core: loopback listen: %w", err)
		}
		defer ln.Close()
		// The dial completes in the listen backlog, so Accept does not block.
		if rawMon, err = net.Dial("tcp", ln.Addr().String()); err != nil {
			return nil, nil, fmt.Errorf("core: loopback dial: %w", err)
		}
		if rawVar, err = ln.Accept(); err != nil {
			_ = rawMon.Close()
			return nil, nil, fmt.Errorf("core: loopback accept: %w", err)
		}
		for _, c := range []net.Conn{rawMon, rawVar} {
			_ = c.(*net.TCPConn).SetNoDelay(true)
		}
	default:
		return nil, nil, fmt.Errorf("core: unknown transport %d", cfg.Transport)
	}

	if !cfg.Encrypt {
		return securechan.Plain(rawMon), securechan.Plain(rawVar), nil
	}

	return handshake(rawMon, rawVar, monEncl, varEncl, AttestedPeer(verifier))
}

// AttestedPeer checks a channel peer's attestation report against the
// verifier's trusted platforms and, when want is given, the peer's
// measurement.
func AttestedPeer(verifier *enclave.Verifier, want ...enclave.Measurement) securechan.VerifyPeer {
	return func(r *enclave.Report) error {
		if r == nil {
			return fmt.Errorf("core: peer presented no attestation report")
		}
		return verifier.Verify(r, want)
	}
}

// MonitorPeer accepts a monitor TEE launched by the platform with the given
// public identity and running the monitor image — the check a model owner
// (and a cluster router) applies before trusting the monitor.
func MonitorPeer(identity []byte) (securechan.VerifyPeer, error) {
	verifier := enclave.NewVerifier()
	if err := verifier.TrustIdentity(identity); err != nil {
		return nil, err
	}
	return AttestedPeer(verifier, enclave.Measure(MonitorImage())), nil
}

// handshake runs the mutual RA-TLS handshake over a raw monitor<->variant
// connection pair, both ends concurrently. On failure both raw connections
// are closed.
func handshake(rawMon, rawVar net.Conn, monEncl, varEncl *enclave.Enclave, verify securechan.VerifyPeer) (securechan.Conn, securechan.Conn, error) {
	type res struct {
		c   securechan.Conn
		err error
	}
	vCh := make(chan res, 1)
	go func() {
		c, err := securechan.Server(rawVar, varEncl, verify)
		vCh <- res{c, err}
	}()
	mc, err := securechan.Client(rawMon, monEncl, verify)
	if err != nil {
		_ = rawMon.Close() // unblocks the variant's side
		err = fmt.Errorf("core: monitor handshake: %w", err)
	}
	vr := <-vCh
	if err == nil && vr.err != nil {
		err = fmt.Errorf("core: variant handshake: %w", vr.err)
	}
	if err != nil {
		_ = rawMon.Close()
		_ = rawVar.Close()
		return nil, nil, err
	}
	return mc, vr.c, nil
}

// Close shuts down the engine, variants and enclaves.
func (d *Deployment) Close() {
	if d.Engine != nil {
		d.Engine.Stop()
	}
	for _, f := range d.closers {
		f()
	}
	d.wg.Wait()
	for _, e := range d.enclaves {
		e.Destroy()
	}
}

// Infer runs one batch sequentially through the deployment.
func (d *Deployment) Infer(inputs map[string]*tensor.Tensor) (monitor.BatchResult, error) {
	return d.Engine.Infer(inputs)
}

// Stream submits all batches for pipelined execution and collects their
// results in completion order (see monitor.Engine.Stream).
func (d *Deployment) Stream(batches []map[string]*tensor.Tensor) ([]monitor.BatchResult, error) {
	return d.Engine.Stream(batches)
}

// BaselineExecutor builds the original-model executor used as the evaluation
// baseline (no partitioning, no MVX, no transport).
func BaselineExecutor(modelName string, mc models.Config, rc infer.Config) (infer.Executor, error) {
	g, err := models.Build(modelName, mc)
	if err != nil {
		return nil, err
	}
	return infer.New(g, rc)
}
