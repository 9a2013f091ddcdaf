// Command mvtee-monitor runs the MVTEE monitor TEE as a TCP server for
// process-separated deployments: it accepts variant-TEE connections over
// attested channels, drives the two-stage bootstrap and binding protocol
// (Figure 6) for each, wires the MVX execution engine, and (in demo mode)
// pushes an inference workload through the pipeline.
//
// Start order: run mvtee-tool build first, then mvtee-monitor, then one
// mvtee-variant process per claimed variant (the monitor assigns pool
// entries in connection order, mirroring dynamic initialization from the
// pre-established pool).
//
// Example (5 partitions, 3-variant MVX on the third):
//
//	mvtee-tool build -model resnet-50 -out /tmp/bundle -targets 5 -specs real
//	mvtee-monitor -bundle /tmp/bundle -listen 127.0.0.1:9000 \
//	    -plans "ort-cpu;ort-cpu;ort-cpu,ort-altep,tvm-graph;ort-cpu;ort-cpu" \
//	    -demo 8 -pipelined &
//	for i in $(seq 7); do mvtee-variant -bundle /tmp/bundle -connect 127.0.0.1:9000 & done
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/attest"
	"repro/internal/check"
	"repro/internal/cluster"
	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/enclave"
	"repro/internal/monitor"
	"repro/internal/securechan"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/tensor"
	"repro/internal/transcript"
	"repro/internal/wire"
)

func main() {
	bundleDir := flag.String("bundle", "", "bundle directory from mvtee-tool build (required)")
	listen := flag.String("listen", "127.0.0.1:9000", "TCP listen address")
	setIdx := flag.Int("set", 0, "partition set index")
	plansStr := flag.String("plans", "", "per-partition variant claims: 'spec,spec;spec;...' (required unless -await-owner)")
	async := flag.Bool("async", false, "asynchronous cross-validation mode")
	response := flag.String("response", "halt",
		"divergence response: halt, drop-variant, report-only or recover (recover hot-replaces dissenters from the -spares pool)")
	stageTimeout := flag.Duration("stage-timeout", 0,
		"straggler deadline per checkpoint (e.g. 300ms); 0 disables — expired variants are dropped and the batch completes via the surviving quorum")
	inflightWindow := flag.Int("inflight-window", 0,
		"per-stage credit budget: max outstanding checkpoint gathers per stage before batches queue; 0 disables (only the global in-flight depth applies)")
	sparesStr := flag.String("spares", "",
		"per-partition spare variant claims, same syntax as -plans; spares idle pre-attested until a recover response promotes one")
	awaitOwner := flag.Bool("await-owner", false,
		"receive the MVX configuration and pool keys from a connecting mvtee-owner process instead of flags/disk (Figure 6 steps 2-3, 8)")
	replicaListen := flag.String("replica-listen", "",
		"cluster replica TCP listen address: serve this engine to an mvtee-serve -replicas router (leader batches return full results, follower batches return digest votes); exclusive with -serve-addr and the demo workload")
	replicaID := flag.String("replica-id", "",
		"replica name advertised to the cluster router (default: the -replica-listen address)")
	demo := flag.Int("demo", 4, "demo batches to run after bring-up (0 = wait forever)")
	pipelined := flag.Bool("pipelined", false, "stream demo batches (pipelined) instead of sequential")
	telemetryAddr := flag.String("telemetry-addr", "",
		"operator telemetry HTTP listen address (e.g. 127.0.0.1:9090) serving /metrics, /trace, /events, /audit and /debug/pprof/; empty disables")
	audit := flag.Bool("audit", true,
		"record a verifiable inference transcript (signed Merkle audit log) served at GET /audit on -telemetry-addr")
	traceRing := flag.Int("trace-ring", 8192,
		"span ring capacity behind /trace and cluster trace federation; evictions surface on mvtee_trace_spans_dropped")
	serveAddr := flag.String("serve-addr", "",
		"multi-tenant serving HTTP listen address (POST /v1/infer, GET /healthz) with dynamic batching and admission control; replaces the demo workload")
	serveMaxBatch := flag.Int("serve-max-batch", 8, "serving: max requests coalesced into one engine batch")
	serveMaxDelay := flag.Duration("serve-max-delay", 2*time.Millisecond, "serving: batching window before a partial batch flushes")
	serveTenants := flag.String("serve-tenants", "", "serving: per-tenant WRR weights and optional p99 SLOs in ms, e.g. 'acme:3:50,guest:1'")
	serveBinary := flag.Bool("serve-binary", true,
		"serving: accept the application/x-mvtee-tensor binary streaming content type (JSON always stays on)")
	serveAdaptive := flag.Bool("serve-adaptive", true,
		"serving: run the closed-loop control plane (batch window, inflight window, spare pool, tenant SLOs); false pins every knob to its flag value")
	serveSLODefault := flag.Float64("serve-slo-p99-ms", 0,
		"serving: default p99 latency SLO in ms for declared tenants without an explicit one in -serve-tenants (0 = none)")
	flag.Parse()
	log.SetPrefix("mvtee-monitor: ")
	log.SetFlags(0)

	// Resize the process span ring before the engine exists: replica-mode
	// span harvesting and /trace both read DefaultTracer.
	if *traceRing > 0 {
		telemetry.DefaultTracer = telemetry.NewTracer(*traceRing)
	}

	if *bundleDir == "" || (*plansStr == "" && !*awaitOwner) {
		flag.Usage()
		os.Exit(2)
	}
	if *replicaListen != "" && *serveAddr != "" {
		log.Fatal("-replica-listen and -serve-addr are mutually exclusive: a replica engine is dedicated to its cluster router")
	}
	resp, err := monitor.ParseResponse(*response)
	if err != nil {
		log.Fatal(err)
	}
	opts := runOptions{
		dir:            *bundleDir,
		listen:         *listen,
		setIdx:         *setIdx,
		plansStr:       *plansStr,
		sparesStr:      *sparesStr,
		async:          *async,
		response:       resp,
		stageTimeout:   *stageTimeout,
		inflightWindow: *inflightWindow,
		awaitOwner:     *awaitOwner,
		replicaListen:  *replicaListen,
		replicaID:      *replicaID,
		demo:           *demo,
		pipelined:      *pipelined,
		telemetryAddr:  *telemetryAddr,
		audit:          *audit,
		serveAddr:      *serveAddr,
		serveMaxBatch:  *serveMaxBatch,
		serveMaxDelay:  *serveMaxDelay,
		serveTenants:   *serveTenants,
		serveBinary:    *serveBinary,
		serveAdaptive:  *serveAdaptive,
		serveSLOms:     *serveSLODefault,
	}
	if err := run(opts); err != nil {
		log.Fatal(err)
	}
}

// runOptions collects the parsed command line.
type runOptions struct {
	dir, listen         string
	setIdx              int
	plansStr, sparesStr string
	async               bool
	response            monitor.ResponseMode
	stageTimeout        time.Duration
	inflightWindow      int
	awaitOwner          bool
	replicaListen       string
	replicaID           string
	demo                int
	pipelined           bool
	telemetryAddr       string
	audit               bool
	serveAddr           string
	serveMaxBatch       int
	serveMaxDelay       time.Duration
	serveTenants        string
	serveBinary         bool
	serveAdaptive       bool
	serveSLOms          float64
}

func parsePlans(s string) []monitor.PartitionPlan {
	var plans []monitor.PartitionPlan
	for _, part := range strings.Split(s, ";") {
		var p monitor.PartitionPlan
		for _, v := range strings.Split(part, ",") {
			if v = strings.TrimSpace(v); v != "" {
				p.Variants = append(p.Variants, v)
			}
		}
		plans = append(plans, p)
	}
	return plans
}

func run(opts runOptions) error {
	dir, setIdx := opts.dir, opts.setIdx
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
	defer monEncl.Destroy()
	mon := monitor.New(monEncl, verifier)

	ln, err := net.Listen("tcp", opts.listen)
	if err != nil {
		return err
	}
	defer ln.Close()

	// Provisioning: either a connecting model owner (Figure 6 steps 2–3)
	// or local flags + the on-disk key table.
	var ownerConn securechan.Conn
	keyFor := func(entryKey string) ([]byte, bool) { return mon.KeyFor(entryKey) }
	if opts.awaitOwner {
		log.Printf("listening on %s, awaiting model owner", ln.Addr())
		raw, err := ln.Accept()
		if err != nil {
			return err
		}
		ownerConn, err = securechan.Server(raw, monEncl, nil)
		if err != nil {
			return fmt.Errorf("owner handshake: %w", err)
		}
		msg, err := wire.Recv(ownerConn)
		if err != nil {
			return fmt.Errorf("await provision: %w", err)
		}
		prov, ok := msg.(*wire.Provision)
		if !ok {
			return fmt.Errorf("expected Provision, got %T", msg)
		}
		if err := mon.Provision(prov); err != nil {
			_ = wire.Send(ownerConn, &wire.Error{Message: err.Error()})
			return err
		}
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
		nonce, err := attest.NewNonce()
		if err != nil {
			return err
		}
		mvx := &monitor.MVXConfig{
			Model:          meta.Model,
			PartitionSet:   setIdx,
			Plans:          parsePlans(opts.plansStr),
			Async:          opts.async,
			Response:       opts.response,
			StageTimeoutMS: int(opts.stageTimeout / time.Millisecond),
			InflightWindow: opts.inflightWindow,
		}
		if opts.sparesStr != "" {
			mvx.Spares = parsePlans(opts.sparesStr)
		}
		cfgJSON, err := mvx.Marshal()
		if err != nil {
			return err
		}
		if err := mon.Provision(&wire.Provision{Nonce: nonce, Config: cfgJSON}); err != nil {
			return err
		}
	}

	if setIdx < 0 || setIdx >= len(meta.Sets) {
		return fmt.Errorf("set %d out of range (%d sets)", setIdx, len(meta.Sets))
	}
	set := meta.Sets[setIdx]
	plans := mon.Config().Plans
	if len(plans) != len(set.Partitions) {
		return fmt.Errorf("%d plans for %d partitions", len(plans), len(set.Partitions))
	}

	// Flatten the plans into connection-order assignments: the claimed
	// variants first, then any spares (which idle pre-attested until a
	// recover response promotes them).
	assignment := func(idPrefix string, pi, vi int, spec string) (monitor.Assignment, error) {
		e := core.Entry{Set: setIdx, Partition: pi, Spec: spec}
		key := core.EntryKeyFor(setIdx, pi, spec)
		kdk, ok := keyFor(key)
		if !ok {
			return monitor.Assignment{}, fmt.Errorf("no pool key for %s", key)
		}
		return monitor.Assignment{
			VariantID:  fmt.Sprintf("%sp%d-%s-%d", idPrefix, pi, spec, vi),
			Partition:  pi,
			Spec:       spec,
			KDK:        kdk,
			Manifest:   e.ManifestPath(),
			Files:      []string{e.GraphPath(), e.SpecPath()},
			Entrypoint: e.EntrypointPath(),
			Evidence:   meta.Evidence[key],
		}, nil
	}
	var assignments, spareAssignments []monitor.Assignment
	for pi, plan := range plans {
		for vi, spec := range plan.Variants {
			a, err := assignment("", pi, vi, spec)
			if err != nil {
				return err
			}
			assignments = append(assignments, a)
		}
	}
	for pi, plan := range mon.Config().Spares {
		for vi, spec := range plan.Variants {
			a, err := assignment("spare-", pi, vi, spec)
			if err != nil {
				return err
			}
			spareAssignments = append(spareAssignments, a)
		}
	}
	log.Printf("listening on %s, awaiting %d variant TEEs (+%d spares)",
		ln.Addr(), len(assignments), len(spareAssignments))

	verify := func(r *enclave.Report) error {
		if r == nil {
			return fmt.Errorf("variant presented no attestation report")
		}
		return verifier.Verify(r, nil)
	}
	accept := func(id string) (securechan.Conn, error) {
		raw, err := ln.Accept()
		if err != nil {
			return nil, err
		}
		if tc, ok := raw.(*net.TCPConn); ok {
			_ = tc.SetNoDelay(true)
		}
		conn, err := securechan.Server(raw, monEncl, verify)
		if err != nil {
			return nil, fmt.Errorf("handshake for %s: %w", id, err)
		}
		return conn, nil
	}
	for _, a := range assignments {
		conn, err := accept(a.VariantID)
		if err != nil {
			return err
		}
		if _, err := mon.Bind(conn, a); err != nil {
			return fmt.Errorf("bind %s: %w", a.VariantID, err)
		}
		log.Printf("bound %s (partition %d, spec %s)", a.VariantID, a.Partition, a.Spec)
	}
	for _, a := range spareAssignments {
		conn, err := accept(a.VariantID)
		if err != nil {
			return err
		}
		mon.AddSpare(conn, a)
		log.Printf("spare %s registered (partition %d, spec %s)", a.VariantID, a.Partition, a.Spec)
	}

	// Real spare factory: scale-up provisions (the adaptive controller's
	// actuator, or an operator request) synthesize fresh pre-attested variant
	// TEEs in-process from the bundle directory instead of failing because no
	// spare happened to be connected at startup.
	factory, err := core.DirSpareFactory(core.SpareFactoryConfig{
		Dir:            dir,
		SetIdx:         setIdx,
		Monitor:        mon,
		MonitorEnclave: monEncl,
		Platform:       plat,
		Verifier:       verifier,
		KeyFor:         keyFor,
	})
	if err != nil {
		return err
	}
	mon.SetSpareFactory(factory)

	// Cluster mode streams per-checkpoint digests to the active router
	// session (early-dissent signal); the tap must be installed before the
	// engine is built.
	var activeReplica atomic.Pointer[cluster.ReplicaServer]
	if opts.replicaListen != "" {
		mon.SetDigestSink(func(batchID uint64, stage int, d check.Digest) {
			if s := activeReplica.Load(); s != nil {
				s.StageDigestSink(batchID, stage, d)
			}
		})
	}

	// Verifiable transcript: heads are signed by this monitor enclave, so an
	// offline auditor holding the bundle's platform identity can verify them
	// without trusting the serving host. Installed before the engine build
	// (EngineConfig snapshots the recorder).
	var rec *transcript.Recorder
	if opts.audit {
		rec = transcript.NewRecorder(transcript.Config{
			Signer:   monEncl,
			Model:    meta.ModelDigest(),
			Bindings: func() transcript.Hash { return mon.BindingsDigest() },
			Metrics:  telemetry.Default,
		})
		defer rec.Close()
		mon.SetTranscript(rec)
	}

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
	for _, vi := range meta.ModelInputs {
		gin = append(gin, vi.Name)
	}
	eng, err := mon.BuildEngine(gin, meta.ModelOutputs, stages)
	if err != nil {
		return err
	}
	eng.Start()
	defer eng.Stop()
	log.Printf("engine started (%d stages)", len(stages))

	// Operator telemetry endpoint: process-wide metrics and spans plus this
	// engine's event stream. Serving failures are logged, never fatal — the
	// inference plane does not depend on the observability plane.
	if opts.telemetryAddr != "" {
		mux := telemetry.NewMux(telemetry.Default, telemetry.DefaultTracer)
		mux.Handle("/events", telemetry.SSE(eng.EventBus()))
		if rec != nil {
			mux.Handle("/audit", transcript.Handler(rec,
				transcript.HandlerConfig{Bindings: func() any { return mon.Bindings() }}))
		}
		tln, err := net.Listen("tcp", opts.telemetryAddr)
		if err != nil {
			return fmt.Errorf("telemetry listen: %w", err)
		}
		defer tln.Close()
		go func() {
			if err := http.Serve(tln, mux); err != nil && !errors.Is(err, net.ErrClosed) {
				log.Printf("telemetry server: %v", err)
			}
		}()
		log.Printf("telemetry on http://%s (/metrics /trace /events /debug/pprof/)", tln.Addr())
	}

	// Figure 6 step 8: send the initialization results, echoing the owner's
	// nonce for freshness.
	if ownerConn != nil {
		var ids []string
		for _, rec := range mon.Bindings() {
			ids = append(ids, rec.VariantID)
		}
		detail := fmt.Sprintf("%x:%s", mon.Nonce(), strings.Join(ids, ","))
		if err := wire.Send(ownerConn, &wire.Ack{Detail: detail}); err != nil {
			return fmt.Errorf("report results to owner: %w", err)
		}
		_ = ownerConn.Close()
		log.Printf("initialization results sent to owner")
	}

	shapes := make(map[string][]int, len(meta.ModelInputs))
	for _, vi := range meta.ModelInputs {
		shapes[vi.Name] = vi.Shape
	}

	// Cluster replica mode: serve the engine to an mvtee-serve router until
	// killed. The engine's output stream is dedicated to the router session,
	// so both the serving front door and the demo workload are skipped.
	if opts.replicaListen != "" {
		rln, err := net.Listen("tcp", opts.replicaListen)
		if err != nil {
			return fmt.Errorf("replica listen: %w", err)
		}
		defer rln.Close()
		id := opts.replicaID
		if id == "" {
			id = rln.Addr().String()
		}
		hello := wire.ReplicaHello{
			ID:           id,
			Variants:     len(assignments),
			GraphInputs:  gin,
			GraphOutputs: meta.ModelOutputs,
			ItemShapes:   shapes,
		}
		go serveReplicas(rln, monEncl, eng, mon, &activeReplica, hello)
		log.Printf("cluster replica %q on %s, awaiting router", id, rln.Addr())
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		got := <-sig
		log.Printf("%v: replica shutting down", got)
		return nil
	}

	// Serving mode: multiplex concurrent tenants onto the engine with
	// dynamic batching and admission control instead of the demo workload.
	if opts.serveAddr != "" {
		return serveFrontend(mon, eng, shapes, opts)
	}

	if opts.demo <= 0 {
		select {} // serve until killed
	}
	demo := opts.demo

	in := demoInput(meta)
	inputs := map[string]*tensor.Tensor{meta.ModelInputs[0].Name: in}
	start := time.Now()
	if opts.pipelined {
		batches := make([]map[string]*tensor.Tensor, demo)
		for i := range batches {
			batches[i] = inputs
		}
		results, err := streamAll(eng, batches)
		if err != nil {
			return err
		}
		el := time.Since(start)
		log.Printf("pipelined: %d batches in %v (%.2f batches/s)", len(results), el,
			float64(len(results))/el.Seconds())
	} else {
		for i := 0; i < demo; i++ {
			r, err := eng.Infer(inputs)
			if err != nil {
				return err
			}
			log.Printf("batch %d done in %v", r.ID, r.Latency)
		}
		el := time.Since(start)
		log.Printf("sequential: %d batches in %v (%.2f batches/s)", demo, el, float64(demo)/el.Seconds())
	}
	for _, ev := range eng.Events() {
		log.Printf("event: %s stage=%d batch=%d variants=%v", ev.Kind, ev.Stage, ev.BatchID, ev.Variants)
	}
	return nil
}

// serveFrontend runs the multi-tenant serving front door over the engine
// until SIGINT/SIGTERM, then drains gracefully (in-flight batches complete,
// new work gets 503).
func serveFrontend(mon *monitor.Monitor, eng *monitor.Engine, itemShapes map[string][]int, opts runOptions) error {
	tenants, err := serve.ParseTenants(opts.serveTenants, opts.serveSLOms)
	if err != nil {
		return fmt.Errorf("-serve-tenants: %w", err)
	}
	srv := serve.New(eng, serve.Config{
		MaxBatch:      opts.serveMaxBatch,
		MaxDelay:      opts.serveMaxDelay,
		Tenants:       tenants,
		ItemShapes:    itemShapes,
		DisableBinary: !opts.serveBinary,
	})
	defer srv.Close()

	if opts.serveAdaptive {
		// Spare scale-up needs a provisioning factory; a process-separated
		// monitor has none (spares arrive over the network), in which case
		// the spare loop's provision attempts fail harmlessly and the other
		// three loops still run.
		ctl := control.New(control.Config{
			Frontend: srv,
			Pipeline: eng,
			Spares:   mon,
			Events:   eng.EventBus(),
		})
		decSub := ctl.Decisions().Subscribe(64)
		go func() {
			for d := range decSub.C {
				log.Printf("control: %s %s %s %d -> %d (%s)", d.Loop, d.Direction, d.Knob, d.From, d.To, d.Reason)
			}
		}()
		ctl.Start()
		defer func() { ctl.Stop(); decSub.Close() }()
		log.Printf("adaptive control plane on; disable with -serve-adaptive=false")
	}

	ln, err := net.Listen("tcp", opts.serveAddr)
	if err != nil {
		return fmt.Errorf("serve listen: %w", err)
	}
	// Bound slow clients on the public front door (see cmd/mvtee-serve).
	hs := &http.Server{
		Handler:           serve.Handler(srv),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	log.Printf("serving on http://%s (POST /v1/infer, GET /healthz; max-batch %d, window %v)",
		ln.Addr(), opts.serveMaxBatch, opts.serveMaxDelay)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case got := <-sig:
		log.Printf("%v: draining", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		log.Printf("drain incomplete: %v", err)
	} else {
		log.Printf("drain complete")
	}
	return hs.Shutdown(ctx)
}

func streamAll(eng *monitor.Engine, batches []map[string]*tensor.Tensor) ([]monitor.BatchResult, error) {
	results := make([]monitor.BatchResult, 0, len(batches))
	errCh := make(chan error, 1)
	go func() {
		for range batches {
			r, ok := <-eng.Outputs()
			if !ok {
				errCh <- fmt.Errorf("engine stopped")
				return
			}
			if r.Err != nil {
				errCh <- r.Err
				return
			}
			results = append(results, r)
		}
		errCh <- nil
	}()
	for _, b := range batches {
		if _, err := eng.Submit(b); err != nil {
			return nil, err
		}
	}
	return results, <-errCh
}

func demoInput(meta *core.BundleMeta) *tensor.Tensor {
	shape := meta.ModelInputs[0].Shape
	in := tensor.New(shape...)
	rng := rand.New(rand.NewPCG(42, 42))
	d := in.Data()
	for i := range d {
		d[i] = float32(rng.NormFloat64())
	}
	return in
}
