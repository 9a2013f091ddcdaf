package node

import (
	"errors"
	"fmt"
	"log"
	"maps"
	"net"
	"slices"
	"strings"

	"repro/internal/attest"
	"repro/internal/check"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/diversify"
	"repro/internal/enclave"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/monitor"
	"repro/internal/securechan"
	"repro/internal/telemetry"
	"repro/internal/transcript"
	"repro/internal/wire"
)

// BuildBundle runs the offline phase for the in-process stack: o.Model at
// o.Scale and o.InputSize, partitioned into o.Stages, over the real-setup
// variant recipes.
func BuildBundle(o Options) (*core.Bundle, error) {
	b, err := core.BuildBundle(core.OfflineConfig{
		ModelName:        o.Model,
		ModelConfig:      models.Config{Scale: o.Scale, InputSize: o.InputSize},
		PartitionTargets: []int{o.Stages},
		Specs:            diversify.RealSetupSpecs(),
	})
	if err != nil {
		return nil, fmt.Errorf("build bundle: %w", err)
	}
	return b, nil
}

// Deploy brings the in-process stack up on partition set 0 of the bundle:
// the attested bring-up with one variant per stage and three diverse
// variants on o.MVXStage, the transcript recorder, and the started engine.
func Deploy(o Options, bundle *core.Bundle) (*Node, error) {
	plans := make([]monitor.PartitionPlan, o.Stages)
	for i := range plans {
		plans[i] = monitor.PartitionPlan{Variants: []string{"ort-cpu"}}
	}
	if o.MVXStage >= 0 && o.MVXStage < o.Stages {
		plans[o.MVXStage] = monitor.PartitionPlan{Variants: []string{"ort-cpu", "ort-altep", "tvm-graph"}}
	}
	dep, err := core.Deploy(bundle, 0, core.DeployConfig{
		MVX: &monitor.MVXConfig{
			Model:    o.Model,
			Plans:    plans,
			Criteria: []check.Criterion{{Metric: check.AllClose, RTol: 5e-2, ATol: 1e-3}},
		},
		Encrypt: true,
		// The engine snapshots the transcript recorder and the digest tap,
		// which need the monitor enclave: startEngine installs them and
		// rebuilds the engine before starting it.
		DeferEngineStart: true,
	})
	if err != nil {
		return nil, fmt.Errorf("deploy: %w", err)
	}
	log.Printf("deployed %s: %d stages, MVX on stage %d", o.Model, o.Stages, o.MVXStage)
	return build(func(n *Node) error {
		n.onClose(dep.Close)
		// In-process deployments synthesize their platform, so auditors get
		// its identity from /audit (trust on first use).
		var identity []byte
		if o.Audit {
			if identity, err = dep.PlatformIdentity(); err != nil {
				return fmt.Errorf("export platform identity: %w", err)
			}
		}
		return n.startEngine(o, dep.Monitor, bundle.ModelDigest(), identity, dep.RebuildEngine,
			bundle.Model.Inputs, bundle.Model.Outputs)
	})
}

// Monitor brings up a process-separated monitor TEE over the saved bundle
// in o.BundleDir (Figure 6): it launches the monitor enclave from the
// bundle's platform, is provisioned by a connecting model owner
// (o.AwaitOwner) or from o and the bundle's key table, accepts one attested
// variant TEE per claim on o.VariantListen and binds them in connection
// order (claimed variants, then idle spares), installs the on-demand spare
// factory, starts the engine and reports the bindings to the owner.
func Monitor(o Options) (*Node, error) {
	return build(func(n *Node) error { return n.monitor(o) })
}

// build runs a bring-up on a fresh node, closing what it started if it
// fails.
func build(up func(n *Node) error) (*Node, error) {
	n := &Node{}
	if err := up(n); err != nil {
		n.Close()
		return nil, err
	}
	return n, nil
}

func (n *Node) monitor(o Options) error {
	dir := o.BundleDir
	meta, err := core.LoadMeta(dir)
	if err != nil {
		return err
	}
	plat, err := core.LoadPlatform(dir)
	if err != nil {
		return err
	}
	verifier := enclave.NewVerifier()
	verifier.Trust(plat)
	monEncl, err := plat.Launch(core.MonitorImage())
	if err != nil {
		return err
	}
	n.onClose(monEncl.Destroy)
	mon := monitor.New(monEncl, verifier)
	ln, err := net.Listen("tcp", o.VariantListen)
	if err != nil {
		return err
	}
	n.onClose(func() { _ = ln.Close() })

	// Provisioning: a connecting model owner (Figure 6 steps 2–3) or the
	// command line plus the on-disk key table.
	var owner securechan.Conn
	setIdx := o.SetIdx
	keyFor := mon.KeyFor
	if o.AwaitOwner {
		log.Printf("listening on %s, awaiting model owner", ln.Addr())
		if owner, err = awaitOwner(ln, mon); err != nil {
			return err
		}
		n.onClose(func() { _ = owner.Close() })
		setIdx = mon.Config().PartitionSet
		log.Printf("owner provisioned MVX config (%d partitions) and keys", len(mon.Config().Plans))
	} else {
		keys, err := core.LoadKeys(dir)
		if err != nil {
			return err
		}
		keyFor = func(entryKey string) ([]byte, bool) {
			k, ok := keys[entryKey]
			return k, ok
		}
		if err := core.Provision(mon, &monitor.MVXConfig{
			Model:          meta.Model,
			PartitionSet:   setIdx,
			Plans:          o.Plans,
			Spares:         o.Spares,
			Async:          o.Async,
			Response:       o.Response,
			StageTimeoutMS: int(o.StageTimeout.Milliseconds()),
			InflightWindow: o.InflightWindow,
		}); err != nil {
			return err
		}
	}
	if err := core.CheckPlans(meta.Sets, setIdx, mon.Config()); err != nil {
		return err
	}
	set := meta.Sets[setIdx]

	claims := core.Claims(setIdx, mon.Config())
	log.Printf("listening on %s, awaiting %d variant TEEs", ln.Addr(), len(claims))
	verify := core.AttestedPeer(verifier)
	for _, c := range claims {
		key := core.EntryKeyFor(c.Entry.Set, c.Entry.Partition, c.Entry.Spec)
		kdk, ok := keyFor(key)
		if !ok {
			return fmt.Errorf("no pool key for %s", key)
		}
		a := c.Entry.Assignment(c.ID, kdk, meta.Evidence[key])
		raw, err := ln.Accept()
		if err != nil {
			return err
		}
		noDelay(raw)
		conn, err := securechan.Server(raw, monEncl, verify)
		if err != nil {
			return fmt.Errorf("handshake for %s: %w", c.ID, err)
		}
		if c.Spare {
			mon.AddSpare(conn, a)
			log.Printf("spare %s registered (partition %d, spec %s)", c.ID, c.Entry.Partition, c.Entry.Spec)
		} else if _, err := mon.Bind(conn, a); err != nil {
			return fmt.Errorf("bind %s: %w", c.ID, err)
		} else {
			log.Printf("bound %s (partition %d, spec %s)", c.ID, c.Entry.Partition, c.Entry.Spec)
		}
	}

	// Scale-up (the adaptive controller's actuator, or an operator request)
	// synthesizes fresh pre-attested variant TEEs in process from the
	// bundle directory.
	factory, err := core.DirSpareFactory(core.SpareFactoryConfig{
		Dir:      dir,
		SetIdx:   setIdx,
		Monitor:  mon,
		Platform: plat,
		Verifier: verifier,
		KeyFor:   keyFor,
	})
	if err != nil {
		return err
	}
	mon.SetSpareFactory(factory)

	// Heads are signed by this monitor enclave: an offline auditor holding
	// the bundle's platform identity verifies them without trusting the
	// serving host.
	build := func() (*monitor.Engine, error) {
		return core.BuildEngine(mon, set, meta.ModelInputs, meta.ModelOutputs)
	}
	if err := n.startEngine(o, mon, meta.ModelDigest(), nil, build, meta.ModelInputs, meta.ModelOutputs); err != nil {
		return err
	}

	// Figure 6 step 8: send the initialization results, echoing the owner's
	// nonce for freshness.
	if owner != nil {
		var ids []string
		for _, rec := range mon.Bindings() {
			ids = append(ids, rec.VariantID)
		}
		detail := fmt.Sprintf("%x:%s", mon.Nonce(), strings.Join(ids, ","))
		if err := wire.Send(owner, &wire.Ack{Detail: detail}); err != nil {
			return fmt.Errorf("report results to owner: %w", err)
		}
		_ = owner.Close()
		log.Printf("initialization results sent to owner")
	}
	return nil
}

// awaitOwner accepts the model owner's attested connection and applies its
// provisioning message (MVX configuration, anti-replay nonce, pool keys).
func awaitOwner(ln net.Listener, mon *monitor.Monitor) (securechan.Conn, error) {
	raw, err := ln.Accept()
	if err != nil {
		return nil, err
	}
	conn, err := securechan.Server(raw, mon.Enclave(), nil)
	if err != nil {
		return nil, fmt.Errorf("owner handshake: %w", err)
	}
	msg, err := wire.Recv(conn)
	if err != nil {
		err = fmt.Errorf("await provision: %w", err)
	} else if prov, ok := msg.(*wire.Provision); !ok {
		err = fmt.Errorf("expected Provision, got %T", msg)
	} else if err = mon.Provision(prov); err != nil {
		_ = wire.Send(conn, &wire.Error{Message: err.Error()})
	}
	if err != nil {
		_ = conn.Close()
		return nil, err
	}
	return conn, nil
}

// startEngine installs what the engine snapshots when it is built — the
// replica port's digest tap and the transcript recorder signed by the
// monitor enclave — then builds and starts the engine and, with
// o.ReplicaListen, serves it to cluster routers.
func (n *Node) startEngine(o Options, mon *monitor.Monitor, model transcript.Hash, identity []byte,
	build func() (*monitor.Engine, error), inputs []graph.ValueInfo, outputs []string) error {
	var rl *ReplicaListener
	if o.ReplicaListen != "" {
		rl = &ReplicaListener{}
		mon.SetDigestSink(rl.digestSink)
	}
	if o.Audit {
		rec := transcript.NewRecorder(transcript.Config{
			Signer:      mon.Enclave(),
			Model:       model,
			Bindings:    func() transcript.Hash { return mon.BindingsDigest() },
			HeadEvery:   o.AuditHeadEvery,
			SampleEvery: o.AuditSample,
			Metrics:     telemetry.Default,
		})
		n.onClose(rec.Close)
		mon.SetTranscript(rec)
		n.audit = rec
		n.auditCfg = transcript.HandlerConfig{Bindings: func() any { return mon.Bindings() }, Identity: identity}
	}
	eng, err := build()
	if err != nil {
		return err
	}
	eng.Start()
	// The engine's router goroutine records each clean batch until it
	// stops, so the engine stops first.
	n.onClose(eng.Stop)
	n.Engine, n.Local, n.Monitor, n.Events = eng, eng, mon, eng.EventBus()
	n.ItemShapes = make(map[string][]int, len(inputs))
	for _, vi := range inputs {
		n.ItemShapes[vi.Name] = vi.Shape
	}
	n.Flight = newFlightRecorder(n.Events)
	log.Printf("engine started (%d stages)", len(eng.Ladder()))
	if rl == nil {
		return nil
	}
	hello := wire.ReplicaHello{
		ID:           o.ReplicaID,
		GraphOutputs: outputs,
		ItemShapes:   n.ItemShapes,
	}
	for _, vi := range inputs {
		hello.GraphInputs = append(hello.GraphInputs, vi.Name)
	}
	for _, p := range mon.Config().Plans {
		hello.Variants += len(p.Variants)
	}
	if err := rl.listen(o.ReplicaListen, eng, mon, hello); err != nil {
		return err
	}
	n.Replicas = rl
	n.onClose(func() { _ = rl.Close() })
	return nil
}

// Trust is what the cluster stack checks and signs with.
type Trust struct {
	// Verify returns the attestation check for the replica at index i of
	// Options.Replicas; nil (or a nil check) leaves the replica unverified.
	Verify func(i int) securechan.VerifyPeer
	// Signer signs the routing tier's transcript heads; nil leaves them
	// unsigned, and offline verification rejects them.
	Signer attest.Attester
	// Model is the sealed model's digest bound into each head.
	Model transcript.Hash
}

// BundleTrust derives the cluster stack's trust from a bundle directory:
// each replica monitor must attest from the bundle's platform running the
// monitor image, and the routing tier's heads are signed by a router
// identity enclave launched from that platform (the simulated analogue of
// the routing tier running in its own TEE). An empty dir trusts the
// network: the channels stay encrypted, the peers unverified.
func BundleTrust(dir string) (Trust, error) {
	if dir == "" {
		log.Printf("WARNING: no -replica-bundle: replica monitors are NOT attestation-verified and transcript heads will be unsigned")
		return Trust{}, nil
	}
	identity, err := core.LoadPlatformIdentity(dir)
	if err != nil {
		return Trust{}, err
	}
	verify, err := core.MonitorPeer(identity)
	if err != nil {
		return Trust{}, err
	}
	t := Trust{Verify: func(int) securechan.VerifyPeer { return verify }}
	if plat, err := core.LoadPlatform(dir); err != nil {
		log.Printf("WARNING: %v: transcript heads will be unsigned", err)
	} else if encl, err := plat.Launch(core.RouterImage()); err != nil {
		return Trust{}, fmt.Errorf("launch router identity enclave: %w", err)
	} else {
		t.Signer = encl
	}
	if meta, err := core.LoadMeta(dir); err == nil {
		t.Model = meta.ModelDigest()
	}
	return t, nil
}

// Cluster brings the cluster stack up: it dials every replica in o.Replicas
// over an attested channel and routes over them (least-loaded and
// rendezvous placement, digest-vote cross-checking, failover), with the
// routing tier's own transcript — one leaf per batch served clean, the
// first-seen checkpoint digests plus every follower's resolved vote. The router serves as the
// front door's engine and the control plane's pipeline; the spare loops stay
// with each replica's monitor.
func Cluster(o Options, t Trust) (*Node, error) {
	return build(func(n *Node) error { return n.cluster(o, t) })
}

func (n *Node) cluster(o Options, t Trust) error {
	forward := o.ClusterForward
	if forward == "" {
		forward = "digest"
	}
	var mode cluster.ForwardMode
	switch forward {
	case "digest":
		mode = cluster.DigestForward
	case "tensor":
		mode = cluster.TensorForward
	default:
		return fmt.Errorf("bad -cluster-forward %q (want digest or tensor)", o.ClusterForward)
	}
	if len(o.Replicas) == 0 {
		return errors.New("no replicas")
	}
	reps := make([]cluster.Replica, 0, len(o.Replicas))
	hellos := make([]wire.ReplicaHello, 0, len(o.Replicas))
	for i, addr := range o.Replicas {
		var verify securechan.VerifyPeer
		if t.Verify != nil {
			verify = t.Verify(i)
		}
		rep, err := dialReplica(addr, verify)
		if err != nil {
			return err
		}
		n.onClose(func() { _ = rep.Close() })
		h := rep.Hello()
		log.Printf("replica %q at %s: %d stages, %d variants, window %d",
			h.ID, addr, h.Stages, h.Variants, h.InflightWindow)
		reps = append(reps, rep)
		hellos = append(hellos, h)
	}
	if err := sameModel(hellos); err != nil {
		return err
	}
	hello := hellos[0]

	// The router process has no engine, so it owns the event bus, and the
	// flight recorder exists before the router that triggers it (failover,
	// dissent, replica loss, demotion).
	n.Events = telemetry.NewBus[monitor.Event](256)
	n.Flight = newFlightRecorder(n.Events)
	if o.Audit {
		n.audit = transcript.NewRecorder(transcript.Config{
			Signer:      t.Signer,
			Model:       t.Model,
			HeadEvery:   o.AuditHeadEvery,
			SampleEvery: o.AuditSample,
			Metrics:     telemetry.Default,
		})
		n.onClose(n.audit.Close)
	}
	router, err := cluster.NewRouter(cluster.RouterConfig{
		Replicas:     reps,
		Verify:       o.ClusterVerify,
		Mode:         mode,
		Sync:         o.ClusterSync,
		PlacementKey: hello.ID,
		Metrics:      telemetry.Default,
		Tracer:       telemetry.DefaultTracer,
		Flight:       n.Flight,
		Transcript:   n.audit,
	})
	if err != nil {
		return err
	}
	// Close posts the leaves of served rows whose votes are still out, so
	// the router closes before the recorder.
	n.onClose(func() { _ = router.Close() })
	n.Engine, n.Router, n.ItemShapes = router, router, hello.ItemShapes
	log.Printf("cluster router up: %d replicas, verify %d, %s forwarding, sync=%v",
		len(reps), o.ClusterVerify, forward, o.ClusterSync)
	return nil
}

// sameModel refuses a replica set the router cannot serve as one model. The
// router admits requests against replica 0's input interface and spreads
// them over every replica, so a replica declaring another interface would
// fail them in its engine (under Halt, halting its pipeline). Every hello
// must therefore match replica 0's stage count, graph inputs and outputs and
// input interface, and that interface must not be empty.
func sameModel(hellos []wire.ReplicaHello) error {
	ref := hellos[0]
	if len(ref.ItemShapes) == 0 {
		return fmt.Errorf("replica %q declares no input interface", ref.ID)
	}
	for _, h := range hellos[1:] {
		switch {
		case h.Stages != ref.Stages:
			return fmt.Errorf("replica %q serves %d stages, %q %d", h.ID, h.Stages, ref.ID, ref.Stages)
		case !slices.Equal(h.GraphInputs, ref.GraphInputs) || !slices.Equal(h.GraphOutputs, ref.GraphOutputs):
			return fmt.Errorf("replica %q serves graph %v -> %v, %q %v -> %v",
				h.ID, h.GraphInputs, h.GraphOutputs, ref.ID, ref.GraphInputs, ref.GraphOutputs)
		case !maps.EqualFunc(h.ItemShapes, ref.ItemShapes, slices.Equal[[]int]):
			return fmt.Errorf("replica %q declares inputs %v, %q %v", h.ID, h.ItemShapes, ref.ID, ref.ItemShapes)
		}
	}
	return nil
}

// dialReplica opens the router's attested channel to one replica monitor and
// reads its hello. The router runs outside any TEE (like the model owner):
// it presents no report of its own and verifies the monitor's.
func dialReplica(addr string, verify securechan.VerifyPeer) (*cluster.Remote, error) {
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial replica %s: %w", addr, err)
	}
	noDelay(raw)
	conn, err := securechan.Client(raw, nil, verify)
	if err != nil {
		_ = raw.Close()
		return nil, fmt.Errorf("replica %s handshake: %w", addr, err)
	}
	rep, err := cluster.NewRemote(conn)
	if err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("replica %s: %w", addr, err)
	}
	return rep, nil
}

// noDelay turns Nagle off on TCP connections: every frame is a whole
// message, so batching writes only adds latency.
func noDelay(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
}
