package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	mvtee "repro"
	"repro/internal/check"
	"repro/internal/cluster"
	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/enclave"
	"repro/internal/monitor"
	"repro/internal/securechan"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/transcript"
	"repro/internal/wire"
)

// pipelineEngine is what the front door and the control plane drive: both
// *monitor.Engine and *cluster.Router satisfy it.
type pipelineEngine interface {
	serve.Engine
	control.Pipeline
}

// Daemon defaults this benchmark reproduces (mvtee-serve and mvtee-monitor
// flag defaults). TestDaemonDefaults compares them with mvtee-serve's flag
// declarations, so a changed default fails the self-test instead of leaving
// the benchmark on the old configuration.
const (
	serveMaxBatch  = 8
	serveMaxDelay  = 2 * time.Millisecond
	tenantQueue    = 64
	globalQueue    = 1024
	controlEpoch   = 500 * time.Millisecond
	auditHeadEvery = 32
	auditSample    = 16
	clusterVerify  = 1
	clusterSync    = false
	replicas       = 2
)

// setupTimes splits the timed set-up into its phases.
type setupTimes struct {
	build         time.Duration // BuildBundle
	deploy        time.Duration // Deploy through Start, summed over replicas
	firstResponse time.Duration // listener up to the first OK /v1/infer answer
	total         time.Duration // start of BuildBundle to the first OK answer
}

// stack is a running serving stack: everything mvtee-serve run() (or, for
// cluster workloads, runCluster() over in-process mvtee-monitor replicas)
// brings up, listening on a loopback port.
type stack struct {
	url   string
	times setupTimes
	// closers run in reverse order on Close.
	closers []func()
}

func (s *stack) onClose(f func()) { s.closers = append(s.closers, f) }

// Close tears the stack down in reverse bring-up order.
func (s *stack) Close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.closers = nil
}

// mvxConfig is the daemon's default pipeline: one variant per stage, three
// diverse variants on the MVX stage.
func mvxConfig(model string) *mvtee.MVXConfig {
	plans := make([]mvtee.PartitionPlan, stages)
	for i := range plans {
		plans[i] = mvtee.PartitionPlan{Variants: []string{"ort-cpu"}}
	}
	plans[mvxStage] = mvtee.PartitionPlan{Variants: []string{"ort-cpu", "ort-altep", "tvm-graph"}}
	return &mvtee.MVXConfig{
		Model:    model,
		Plans:    plans,
		Criteria: []mvtee.Criterion{criterion},
	}
}

// newClient returns the benchmark's binary-protocol client, holding at most
// conns connections.
func newClient(url string, conns int) *serve.Client {
	return &serve.Client{
		BaseURL: url,
		Binary:  true,
		HTTP: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
	}
}

// setUp brings the workload's stack up and times it, from the start of
// BuildBundle to the first successful /v1/infer answer (for pool input 0,
// with every graph output present). wrap, when non-nil, interposes on
// the engine handed to serve.New and the control plane; the stop function it
// returns runs once the front door has closed.
func setUp(w workload, pool *inputPool, wrap func(pipelineEngine) (pipelineEngine, func())) (st *stack, err error) {
	st = &stack{}
	defer func() {
		if err != nil {
			st.Close()
			st = nil
		}
	}()
	t0 := time.Now()
	bundle, err := mvtee.BuildBundle(mvtee.OfflineConfig{
		ModelName:        w.model,
		ModelConfig:      w.modelConfig(),
		PartitionTargets: []int{stages},
		Specs:            mvtee.RealSetupSpecs(),
	})
	if err != nil {
		return st, fmt.Errorf("build bundle: %w", err)
	}
	st.times.build = time.Since(t0)

	var (
		eng        pipelineEngine
		spares     control.SparePool
		events     *telemetry.Bus[monitor.Event]
		flight     *telemetry.FlightRecorder
		itemShapes map[string][]int
	)
	if w.cluster {
		// The router process has no engine, so it owns the event bus, and
		// the flight recorder exists before the router that triggers it.
		events = telemetry.NewBus[monitor.Event](256)
		flight = newFlightRecorder(events)
		r, shapes, err := st.upCluster(bundle, w.model, flight)
		if err != nil {
			return st, err
		}
		eng, itemShapes = r, shapes
	} else {
		dep, err := st.upInProc(bundle, w.model)
		if err != nil {
			return st, err
		}
		eng, spares, events = dep.Engine, dep.Monitor, dep.Engine.EventBus()
		flight = newFlightRecorder(events)
		itemShapes = make(map[string][]int, len(bundle.Model.Inputs))
		for _, vi := range bundle.Model.Inputs {
			itemShapes[vi.Name] = vi.Shape
		}
	}
	if wrap != nil {
		var stop func()
		eng, stop = wrap(eng)
		st.onClose(stop)
	}

	tl := time.Now()
	if err := st.upFrontend(eng, spares, events, flight, itemShapes, w.cluster); err != nil {
		return st, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	resp, err := newClient(st.url, 1).Infer(ctx, serve.Request{Inputs: pool.inputs[0]})
	if err != nil {
		return st, fmt.Errorf("first request: %w", err)
	}
	if err := pool.checkOutputs(resp.Tensors); err != nil {
		return st, fmt.Errorf("first request: %w", err)
	}
	now := time.Now()
	st.times.firstResponse = now.Sub(tl)
	st.times.total = now.Sub(t0)
	return st, nil
}

// upInProc is mvtee-serve run(): attested Deploy with the engine start
// deferred, the transcript recorder installed, the engine rebuilt, Start.
func (st *stack) upInProc(bundle *mvtee.Bundle, model string) (*mvtee.Deployment, error) {
	t0 := time.Now()
	dep, err := mvtee.Deploy(bundle, 0, mvtee.DeployConfig{
		MVX:              mvxConfig(model),
		Encrypt:          true,
		DeferEngineStart: true,
	})
	if err != nil {
		return nil, fmt.Errorf("deploy: %w", err)
	}
	rec := transcript.NewRecorder(transcript.Config{
		Signer:      dep.Monitor.Enclave(),
		Model:       transcript.Hash(bundle.ModelDigest()),
		Bindings:    func() transcript.Hash { return dep.Monitor.BindingsDigest() },
		HeadEvery:   auditHeadEvery,
		SampleEvery: auditSample,
		Metrics:     telemetry.Default,
	})
	closeEngineFirst(st, dep, rec)
	dep.Monitor.SetTranscript(rec)
	if _, err := dep.RebuildEngine(); err != nil {
		return nil, fmt.Errorf("rebuild engine with transcript: %w", err)
	}
	if _, err := dep.PlatformIdentity(); err != nil {
		return nil, fmt.Errorf("export platform identity: %w", err)
	}
	dep.Start()
	st.times.deploy += time.Since(t0)
	return dep, nil
}

// closeEngineFirst registers the deployment's and its transcript
// recorder's teardown so that the engine stops before the recorder closes.
// The daemons defer them the other way round, which leaves stage workers
// posting to a recorder whose Close is running: Recorder.post checks its
// closed flag and then sends, so a post can still reach the closed channel
// (the race detector reports it on the self-test's resnet-open run).
// Teardown is not measured, so the benchmark takes the safe order.
func closeEngineFirst(st *stack, dep *mvtee.Deployment, rec *transcript.Recorder) {
	st.onClose(rec.Close)
	st.onClose(dep.Close)
}

// upReplica is one mvtee-monitor -replica-listen process, in process: a
// Deploy'ed engine with the digest tap and its own transcript, served by
// cluster.NewReplicaServer over securechan on a loopback TCP listener. It
// returns the listener address and the platform that launched the replica's
// monitor enclave.
func (st *stack) upReplica(bundle *mvtee.Bundle, model, id string) (string, *enclave.Platform, error) {
	t0 := time.Now()
	dep, err := mvtee.Deploy(bundle, 0, mvtee.DeployConfig{
		MVX:              mvxConfig(model),
		Encrypt:          true,
		DeferEngineStart: true,
	})
	if err != nil {
		return "", nil, fmt.Errorf("deploy replica %s: %w", id, err)
	}
	var active atomic.Pointer[cluster.ReplicaServer]
	dep.Monitor.SetDigestSink(func(batchID uint64, stage int, d check.Digest) {
		if s := active.Load(); s != nil {
			s.StageDigestSink(batchID, stage, d)
		}
	})
	rec := transcript.NewRecorder(transcript.Config{
		Signer:   dep.Monitor.Enclave(),
		Model:    transcript.Hash(bundle.ModelDigest()),
		Bindings: func() transcript.Hash { return dep.Monitor.BindingsDigest() },
		Metrics:  telemetry.Default,
	})
	closeEngineFirst(st, dep, rec)
	dep.Monitor.SetTranscript(rec)
	if _, err := dep.RebuildEngine(); err != nil {
		return "", nil, fmt.Errorf("replica %s engine: %w", id, err)
	}
	dep.Start()
	st.times.deploy += time.Since(t0)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, fmt.Errorf("replica listen: %w", err)
	}
	var gin []string
	for _, vi := range bundle.Model.Inputs {
		gin = append(gin, vi.Name)
	}
	shapes := make(map[string][]int, len(bundle.Model.Inputs))
	for _, vi := range bundle.Model.Inputs {
		shapes[vi.Name] = vi.Shape
	}
	variants := 0
	for _, p := range mvxConfig(model).Plans {
		variants += len(p.Variants)
	}
	hello := wire.ReplicaHello{
		ID:           id,
		Variants:     variants,
		GraphInputs:  gin,
		GraphOutputs: bundle.Model.Outputs,
		ItemShapes:   shapes,
	}
	monEncl := dep.Monitor.Enclave()
	var wg sync.WaitGroup
	var conns sync.Map // live replica-side connections, closed on teardown
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			raw, err := ln.Accept()
			if err != nil {
				return
			}
			if tc, ok := raw.(*net.TCPConn); ok {
				_ = tc.SetNoDelay(true)
			}
			conn, err := securechan.Server(raw, monEncl, nil)
			if err != nil {
				_ = raw.Close()
				continue
			}
			conns.Store(conn, struct{}{})
			srv := cluster.NewReplicaServer(conn, dep.Engine, cluster.ReplicaServerOptions{
				Hello:  hello,
				Spares: dep.Monitor.SpareCount,
			})
			active.Store(srv)
			_ = srv.Run()
			active.Store(nil)
			_ = conn.Close()
			conns.Delete(conn)
		}
	}()
	st.onClose(func() {
		_ = ln.Close()
		conns.Range(func(k, _ any) bool { _ = k.(*securechan.SecureConn).Close(); return true })
		wg.Wait()
	})
	return ln.Addr().String(), monEncl.Platform(), nil
}

// upCluster is mvtee-serve runCluster() with -replica-bundle: every replica
// monitor's report is verified against the platform that launched it and
// the monitor image measurement, the routing tier's transcript is signed by
// a router identity enclave launched from the shared platform, and the
// router runs with the daemon defaults (verify 1, digest forwarding, async).
func (st *stack) upCluster(bundle *mvtee.Bundle, model string, flight *telemetry.FlightRecorder) (*cluster.Router, map[string][]int, error) {
	addrs := make([]string, replicas)
	verifiers := make([]*enclave.Verifier, replicas)
	var plat *enclave.Platform
	for i := range addrs {
		addr, p, err := st.upReplica(bundle, model, fmt.Sprintf("replica-%d", i))
		if err != nil {
			return nil, nil, err
		}
		identity, err := p.ExportPublic()
		if err != nil {
			return nil, nil, err
		}
		// One verifier per replica: every in-process Deploy synthesizes its
		// own platform under the same platform ID.
		verifiers[i] = enclave.NewVerifier()
		if err := verifiers[i].TrustIdentity(identity); err != nil {
			return nil, nil, err
		}
		addrs[i] = addr
		if plat == nil {
			plat = p
		}
	}
	wantMeas := enclave.Measure(core.MonitorImage())
	reps := make([]cluster.Replica, 0, len(addrs))
	var hello wire.ReplicaHello
	for i, addr := range addrs {
		verifier := verifiers[i]
		verify := func(r *enclave.Report) error {
			if r == nil {
				return errors.New("replica monitor presented no attestation report")
			}
			return verifier.Verify(r, []enclave.Measurement{wantMeas})
		}
		raw, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, nil, fmt.Errorf("dial replica %s: %w", addr, err)
		}
		if tc, ok := raw.(*net.TCPConn); ok {
			_ = tc.SetNoDelay(true)
		}
		conn, err := securechan.Client(raw, nil, verify)
		if err != nil {
			_ = raw.Close()
			return nil, nil, fmt.Errorf("replica %s handshake: %w", addr, err)
		}
		rep, err := cluster.NewRemote(conn)
		if err != nil {
			_ = conn.Close()
			return nil, nil, fmt.Errorf("replica %s: %w", addr, err)
		}
		st.onClose(func() { _ = rep.Close() })
		if len(reps) == 0 {
			hello = rep.Hello()
		}
		reps = append(reps, rep)
	}

	// The daemon launches the router identity from the bundle's saved
	// platform; in process, that is the platform of the first replica.
	signer, err := plat.Launch(core.RouterImage())
	if err != nil {
		return nil, nil, fmt.Errorf("launch router identity enclave: %w", err)
	}
	st.onClose(signer.Destroy)
	rec := transcript.NewRecorder(transcript.Config{
		Signer:      signer,
		Model:       transcript.Hash(bundle.ModelDigest()),
		HeadEvery:   auditHeadEvery,
		SampleEvery: auditSample,
		Metrics:     telemetry.Default,
	})
	st.onClose(rec.Close)
	router, err := cluster.NewRouter(cluster.RouterConfig{
		Replicas:     reps,
		Verify:       clusterVerify,
		Sync:         clusterSync,
		Mode:         cluster.DigestForward,
		PlacementKey: hello.ID,
		Metrics:      telemetry.Default,
		Tracer:       telemetry.DefaultTracer,
		Flight:       flight,
		Transcript:   rec,
	})
	if err != nil {
		return nil, nil, err
	}
	st.onClose(func() { _ = router.Close() })
	return router, hello.ItemShapes, nil
}
