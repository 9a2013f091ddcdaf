package core

import (
	"fmt"
	"net"
	"sync"

	"repro/internal/attest"
	"repro/internal/diversify"
	"repro/internal/enclave"
	"repro/internal/infer"
	"repro/internal/models"
	"repro/internal/monitor"
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

// launchAndBind brings up one variant TEE for the pool entry and runs the
// bootstrap/binding protocol against the monitor.
func (d *Deployment) launchAndBind(variantID string, e Entry) error {
	b := d.Bundle
	kdk, ok := b.Keys[e]
	if !ok {
		return fmt.Errorf("core: no pool entry %+v", e)
	}
	spec, err := findSpec(b, e.Spec)
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
	vEncl, err := plat.Launch(enclave.Image{
		Name:         "mvtee-variant",
		Code:         b.InitBinary,
		InitialPages: 64 << 20,
	})
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
		vopts = d.cfg.VariantOptions(variantID, e)
	}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		_ = variant.Run(varConn, vos, vopts) // terminates on Shutdown or conn close
	}()
	if _, err := d.Monitor.Bind(monConn, monitor.Assignment{
		VariantID:  variantID,
		Partition:  e.Partition,
		Spec:       e.Spec,
		KDK:        kdk,
		Manifest:   e.ManifestPath(),
		Files:      []string{e.GraphPath(), e.SpecPath()},
		Entrypoint: e.EntrypointPath(),
		Evidence:   b.Evidence[e],
	}); err != nil {
		return fmt.Errorf("core: bind %s: %w", variantID, err)
	}
	return nil
}

// launchSpare brings up a spare variant TEE (Figure 6: the pool of spares
// pre-established for cheap recovery) and registers it with the monitor
// without binding: the spare idles in stage-1 bootstrap, waiting for its
// assignment, until a Recover response promotes it into a dead slot.
func (d *Deployment) launchSpare(variantID string, e Entry) error {
	b := d.Bundle
	kdk, ok := b.Keys[e]
	if !ok {
		return fmt.Errorf("core: no pool entry %+v", e)
	}
	spec, err := findSpec(b, e.Spec)
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
	vEncl, err := plat.Launch(enclave.Image{
		Name:         "mvtee-variant",
		Code:         b.InitBinary,
		InitialPages: 64 << 20,
	})
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
	d.closers = append(d.closers, func() {
		_ = monConn.Close()
		_ = varConn.Close()
	})
	var vopts variant.Options
	if d.cfg.VariantOptions != nil {
		vopts = d.cfg.VariantOptions(variantID, e)
	}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		_ = variant.Run(varConn, vos, vopts) // blocks in bootstrap until promoted
	}()
	d.Monitor.AddSpare(monConn, monitor.Assignment{
		VariantID:  variantID,
		Partition:  e.Partition,
		Spec:       e.Spec,
		KDK:        kdk,
		Manifest:   e.ManifestPath(),
		Files:      []string{e.GraphPath(), e.SpecPath()},
		Entrypoint: e.EntrypointPath(),
		Evidence:   b.Evidence[e],
	})
	return nil
}

// ProvisionSpare launches one additional pre-attested spare for a partition
// (the adaptive controller's spare-pool scale-up actuator; Deploy wires it
// as the monitor's spare factory). The spec is taken from the partition's
// spare plan when one is configured, else from its variant plan, cycling
// through the diversified specs so successive spares stay heterogeneous.
func (d *Deployment) ProvisionSpare(partition int) error {
	if partition < 0 {
		partition = 0
	}
	if partition >= len(d.cfg.MVX.Plans) {
		return fmt.Errorf("core: partition %d out of range", partition)
	}
	specs := d.cfg.MVX.Plans[partition].Variants
	if partition < len(d.cfg.MVX.Spares) && len(d.cfg.MVX.Spares[partition].Variants) > 0 {
		specs = d.cfg.MVX.Spares[partition].Variants
	}
	if len(specs) == 0 {
		return fmt.Errorf("core: partition %d has no specs to provision from", partition)
	}
	d.spareMu.Lock()
	defer d.spareMu.Unlock()
	d.spareSeq++
	spec := specs[d.spareSeq%len(specs)]
	variantID := fmt.Sprintf("autospare-p%d-%s-%d", partition, spec, d.spareSeq)
	return d.launchSpare(variantID, Entry{Set: d.SetIdx, Partition: partition, Spec: spec})
}

// Deploy brings up the full system on partition set setIdx of the bundle:
// monitor TEE, variant TEEs per the MVX plan, attested bootstrap, binding,
// and a started execution engine.
func Deploy(b *Bundle, setIdx int, cfg DeployConfig) (*Deployment, error) {
	if setIdx < 0 || setIdx >= len(b.Sets) {
		return nil, fmt.Errorf("core: partition set %d out of range", setIdx)
	}
	if cfg.MVX == nil {
		return nil, fmt.Errorf("core: missing MVX config")
	}
	set := b.Sets[setIdx]
	if len(cfg.MVX.Plans) != len(set.Partitions) {
		return nil, fmt.Errorf("core: %d plans for %d partitions", len(cfg.MVX.Plans), len(set.Partitions))
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

	// Owner provisioning (Figure 6 steps 2–3): config + anti-replay nonce.
	nonce, err := attest.NewNonce()
	if err != nil {
		d.Close()
		return nil, err
	}
	cfgJSON, err := cfg.MVX.Marshal()
	if err != nil {
		d.Close()
		return nil, err
	}
	if err := mon.Provision(&wire.Provision{Nonce: nonce, Config: cfgJSON}); err != nil {
		d.Close()
		return nil, err
	}

	// Variant TEEs per claim.
	for pi, plan := range cfg.MVX.Plans {
		for vi, specName := range plan.Variants {
			variantID := fmt.Sprintf("p%d-%s-%d", pi, specName, vi)
			if err := d.launchAndBind(variantID, Entry{Set: setIdx, Partition: pi, Spec: specName}); err != nil {
				d.Close()
				return nil, err
			}
		}
	}

	// Spare TEEs per claim (pre-established, bound on promotion).
	for pi, plan := range cfg.MVX.Spares {
		for vi, specName := range plan.Variants {
			variantID := fmt.Sprintf("spare-p%d-%s-%d", pi, specName, vi)
			if err := d.launchSpare(variantID, Entry{Set: setIdx, Partition: pi, Spec: specName}); err != nil {
				d.Close()
				return nil, err
			}
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
	return d.launchAndBind(variantID, e)
}

// FullUpdate performs the full variant update of §4.3: it quiesces the
// engine, retires every bound variant (TEEs are never reused), reshuffles to
// partition set newSetIdx with the given plans, launches and binds an
// all-new variant fleet, and starts a fresh engine. The binding log keeps
// the retired generation's records (marked replaced) for auditing.
func (d *Deployment) FullUpdate(newSetIdx int, mvx *monitor.MVXConfig) error {
	if newSetIdx < 0 || newSetIdx >= len(d.Bundle.Sets) {
		return fmt.Errorf("core: partition set %d out of range", newSetIdx)
	}
	if len(mvx.Plans) != len(d.Bundle.Sets[newSetIdx].Partitions) {
		return fmt.Errorf("core: %d plans for %d partitions",
			len(mvx.Plans), len(d.Bundle.Sets[newSetIdx].Partitions))
	}
	if d.Engine != nil {
		d.Engine.StopKeepVariants()
	}
	for _, rec := range d.Monitor.Bindings() {
		if !rec.Replaced {
			d.Monitor.Unbind(rec.VariantID)
		}
	}
	// Re-provision the new configuration with a fresh nonce.
	nonce, err := attest.NewNonce()
	if err != nil {
		return err
	}
	cfgJSON, err := mvx.Marshal()
	if err != nil {
		return err
	}
	if err := d.Monitor.Provision(&wire.Provision{Nonce: nonce, Config: cfgJSON}); err != nil {
		return err
	}
	d.SetIdx = newSetIdx
	gen := len(d.Monitor.Bindings()) // uniquify the new generation's IDs
	for pi, plan := range mvx.Plans {
		for vi, specName := range plan.Variants {
			variantID := fmt.Sprintf("g%d-p%d-%s-%d", gen, pi, specName, vi)
			if err := d.launchAndBind(variantID, Entry{Set: newSetIdx, Partition: pi, Spec: specName}); err != nil {
				return err
			}
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
	set := d.Bundle.Sets[d.SetIdx]
	stages := make([]monitor.StageSpec, len(set.Partitions))
	for pi, p := range set.Partitions {
		for _, in := range p.Inputs {
			stages[pi].Inputs = append(stages[pi].Inputs, in.Name)
		}
		for _, out := range p.Outputs {
			stages[pi].Outputs = append(stages[pi].Outputs, out.Name)
		}
	}
	var gin []string
	for _, vi := range d.Bundle.Model.Inputs {
		gin = append(gin, vi.Name)
	}
	d.Monitor.ResetEngine()
	eng, err := d.Monitor.BuildEngine(gin, d.Bundle.Model.Outputs, stages)
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
		accepted := make(chan net.Conn, 1)
		errCh := make(chan error, 1)
		go func() {
			c, err := ln.Accept()
			if err != nil {
				errCh <- err
				return
			}
			accepted <- c
		}()
		rawMon, err = net.Dial("tcp", ln.Addr().String())
		if err != nil {
			_ = ln.Close()
			return nil, nil, fmt.Errorf("core: loopback dial: %w", err)
		}
		select {
		case rawVar = <-accepted:
		case err := <-errCh:
			_ = ln.Close()
			return nil, nil, fmt.Errorf("core: loopback accept: %w", err)
		}
		_ = ln.Close()
		if tc, ok := rawMon.(*net.TCPConn); ok {
			_ = tc.SetNoDelay(true)
		}
		if tc, ok := rawVar.(*net.TCPConn); ok {
			_ = tc.SetNoDelay(true)
		}
	default:
		return nil, nil, fmt.Errorf("core: unknown transport %d", cfg.Transport)
	}

	if !cfg.Encrypt {
		return securechan.Plain(rawMon), securechan.Plain(rawVar), nil
	}

	verify := func(r *enclave.Report) error {
		if r == nil {
			return fmt.Errorf("core: peer presented no attestation report")
		}
		return verifier.Verify(r, nil)
	}
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
	vr := <-vCh
	if err != nil {
		return nil, nil, fmt.Errorf("core: monitor handshake: %w", err)
	}
	if vr.err != nil {
		return nil, nil, fmt.Errorf("core: variant handshake: %w", vr.err)
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
// results (in completion order).
func (d *Deployment) Stream(batches []map[string]*tensor.Tensor) ([]monitor.BatchResult, error) {
	results := make([]monitor.BatchResult, 0, len(batches))
	done := make(chan error, 1)
	go func() {
		for range batches {
			r, ok := <-d.Engine.Outputs()
			if !ok {
				done <- fmt.Errorf("core: engine output channel closed")
				return
			}
			results = append(results, r)
		}
		done <- nil
	}()
	for _, in := range batches {
		if _, err := d.Engine.Submit(in); err != nil {
			// Drain whatever completes, then report.
			<-done
			return results, err
		}
	}
	err := <-done
	return results, err
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
