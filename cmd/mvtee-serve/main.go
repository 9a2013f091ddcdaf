// Command mvtee-serve is the multi-tenant serving front-end: it deploys an
// MVTEE pipeline in process (offline build + attested online bring-up via
// the facade) and serves concurrent client inference over HTTP with dynamic
// micro-batching, per-tenant admission control and priority lanes.
//
//	mvtee-serve -model resnet-50 -listen 127.0.0.1:8080 \
//	    -max-batch 8 -max-delay 2ms -tenants "acme:3:50,guest:1"
//
//	curl -s localhost:8080/v1/infer -d '{
//	  "tenant": "acme", "priority": "high",
//	  "inputs": {"image": {"shape": [1,3,32,32], "data": [/* 3072 floats */]}}
//	}'
//
// Overloaded tenants receive 429 with a Retry-After hint instead of
// unbounded queueing; SIGINT/SIGTERM triggers a graceful drain (in-flight
// batches complete, new work is refused with 503). For process-separated
// deployments use mvtee-monitor -serve-addr instead.
//
// By default an adaptive control plane (internal/control) retunes the
// batching window, the engine's inflight credit window, the spare pool and
// per-tenant scheduling from live telemetry; -adaptive=false pins every
// knob to its flag value.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	mvtee "repro"
	"repro/internal/control"
	"repro/internal/monitor"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/transcript"
)

func main() {
	model := flag.String("model", "resnet-50", "model replica to deploy")
	stagesN := flag.Int("stages", 5, "pipeline partition count")
	mvxStage := flag.Int("mvx-stage", 2, "stage protected by 3-variant MVX (-1 = none, all fast path)")
	scale := flag.Float64("scale", 0, "model channel scale (default 0.25)")
	inputSize := flag.Int("input-size", 0, "model input resolution (default 32)")
	listen := flag.String("listen", "127.0.0.1:8080", "serving HTTP listen address")
	maxBatch := flag.Int("max-batch", 8, "max requests coalesced into one engine batch")
	maxDelay := flag.Duration("max-delay", 2*time.Millisecond, "batching window: a partial batch flushes this long after its first request")
	tenantQueue := flag.Int("tenant-queue", 64, "per-tenant pending-request cap")
	globalQueue := flag.Int("global-queue", 1024, "global pending-request cap")
	tenantsStr := flag.String("tenants", "", "per-tenant WRR weights and optional p99 SLOs in ms, e.g. 'acme:3:50,guest:1' (unknown tenants get weight 1)")
	adaptive := flag.Bool("adaptive", true, "run the closed-loop control plane (batch window, inflight window, spare pool, tenant SLOs); false pins every knob to its flag value")
	sloDefault := flag.Float64("slo-p99-ms", 0, "default p99 latency SLO in ms for declared tenants without an explicit one in -tenants (0 = none)")
	epoch := flag.Duration("control-epoch", 500*time.Millisecond, "control-plane decision tick")
	binaryProto := flag.Bool("binary-protocol", true,
		"accept the application/x-mvtee-tensor binary streaming content type on /v1/infer (JSON always stays on)")
	audit := flag.Bool("audit", true,
		"record a verifiable inference transcript (signed Merkle audit log) and serve it at GET /audit on -telemetry-addr; mvtee-tool verify consumes it")
	auditHeadEvery := flag.Int("audit-head-every", 32, "sign a new transcript tree head every N leaves")
	auditSample := flag.Int("audit-sample", 16, "retain every Nth batch's inputs for offline replay (-1 disables sampling)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful-drain deadline on SIGINT/SIGTERM")
	telemetryAddr := flag.String("telemetry-addr", "",
		"operator telemetry HTTP listen address serving /metrics, /trace, /events, /debug/flight and /debug/pprof/ (plus /metrics/cluster in cluster mode); empty disables")
	traceRing := flag.Int("trace-ring", 8192,
		"span ring capacity behind /trace; in cluster mode the ring also holds merged replica spans, so size it for (batches in flight x spans per batch x replicas) — evictions surface on mvtee_trace_spans_dropped")
	replicas := flag.String("replicas", "",
		"cluster mode: comma-separated mvtee-monitor -replica-listen addresses to route over instead of deploying in process; the local -model/-stages flags are ignored")
	replicaBundle := flag.String("replica-bundle", "",
		"cluster mode: bundle directory whose platform identity pins each replica monitor's attestation; empty skips verification (trust the network)")
	clusterVerify := flag.Int("cluster-verify", 1,
		"cluster mode: follower replicas cross-checking each batch (0 = pure load balancing with failover)")
	clusterSync := flag.Bool("cluster-sync", false,
		"cluster mode: hold each result until every follower vote lands (fail on dissent) instead of async dissent telemetry")
	clusterForward := flag.String("cluster-forward", "digest",
		"cluster mode: follower result forwarding — 'digest' (46-byte votes) or 'tensor' (full outputs, the naive baseline)")
	flag.Parse()
	log.SetPrefix("mvtee-serve: ")
	log.SetFlags(0)

	// Resize the process span ring before anything records into it: the
	// router, the serve scheduler and (in-process mode) the engine all share
	// DefaultTracer, so /trace serves one merged timeline.
	if *traceRing > 0 {
		telemetry.DefaultTracer = telemetry.NewTracer(*traceRing)
	}

	tenants, err := serve.ParseTenants(*tenantsStr, *sloDefault)
	if err != nil {
		log.Fatalf("-tenants: %v", err)
	}
	o := options{
		model: *model, stages: *stagesN, mvxStage: *mvxStage,
		scale: *scale, inputSize: *inputSize,
		listen: *listen, telemetryAddr: *telemetryAddr,
		drainTimeout: *drainTimeout,
		adaptive:     *adaptive,
		controlEpoch: *epoch,
		serveCfg: serve.Config{
			MaxBatch:      *maxBatch,
			MaxDelay:      *maxDelay,
			TenantQueue:   *tenantQueue,
			GlobalQueue:   *globalQueue,
			Tenants:       tenants,
			DisableBinary: !*binaryProto,
		},
		replicas:       *replicas,
		replicaBundle:  *replicaBundle,
		clusterVerify:  *clusterVerify,
		clusterSync:    *clusterSync,
		clusterForward: *clusterForward,
		audit:          *audit,
		auditHeadEvery: *auditHeadEvery,
		auditSample:    *auditSample,
	}
	if o.replicas != "" {
		err = runCluster(o)
	} else {
		err = run(o)
	}
	if err != nil {
		log.Fatal(err)
	}
}

type options struct {
	model            string
	stages, mvxStage int
	scale            float64
	inputSize        int
	listen           string
	telemetryAddr    string
	drainTimeout     time.Duration
	adaptive         bool
	controlEpoch     time.Duration
	serveCfg         serve.Config
	replicas         string
	replicaBundle    string
	clusterVerify    int
	clusterSync      bool
	clusterForward   string
	audit            bool
	auditHeadEvery   int
	auditSample      int
}

func run(o options) error {
	// Offline phase: partition the model and build the diversified pool.
	bundle, err := mvtee.BuildBundle(mvtee.OfflineConfig{
		ModelName:        o.model,
		ModelConfig:      mvtee.ModelConfig{Scale: o.scale, InputSize: o.inputSize},
		PartitionTargets: []int{o.stages},
		Specs:            mvtee.RealSetupSpecs(),
	})
	if err != nil {
		return fmt.Errorf("build bundle: %w", err)
	}

	// Online phase: attested bring-up, MVX on the protected stage.
	plans := make([]mvtee.PartitionPlan, o.stages)
	for i := range plans {
		plans[i] = mvtee.PartitionPlan{Variants: []string{"ort-cpu"}}
	}
	if o.mvxStage >= 0 && o.mvxStage < o.stages {
		plans[o.mvxStage] = mvtee.PartitionPlan{Variants: []string{"ort-cpu", "ort-altep", "tvm-graph"}}
	}
	dep, err := mvtee.Deploy(bundle, 0, mvtee.DeployConfig{
		MVX: &mvtee.MVXConfig{
			Model:    o.model,
			Plans:    plans,
			Criteria: []mvtee.Criterion{{Metric: mvtee.AllClose, RTol: 5e-2, ATol: 1e-3}},
		},
		Encrypt: true,
		// The transcript recorder signs with the monitor enclave, which only
		// exists after bring-up — so the engine build is deferred, the
		// recorder installed, and the engine rebuilt below before starting.
		DeferEngineStart: true,
	})
	if err != nil {
		return fmt.Errorf("deploy: %w", err)
	}
	var rec *transcript.Recorder
	// The engine's stage workers post to the recorder until they stop, so
	// the deployment (and its engine) closes first.
	defer func() {
		dep.Close()
		rec.Close()
	}()
	log.Printf("deployed %s: %d stages, MVX on stage %d", o.model, o.stages, o.mvxStage)

	var bindings func() any
	var identity []byte
	if o.audit {
		rec = transcript.NewRecorder(transcript.Config{
			Signer:      dep.Monitor.Enclave(),
			Model:       transcript.Hash(bundle.ModelDigest()),
			Bindings:    func() transcript.Hash { return dep.Monitor.BindingsDigest() },
			HeadEvery:   o.auditHeadEvery,
			SampleEvery: o.auditSample,
			Metrics:     telemetry.Default,
		})
		dep.Monitor.SetTranscript(rec)
		if _, err := dep.RebuildEngine(); err != nil {
			return fmt.Errorf("rebuild engine with transcript: %w", err)
		}
		bindings = func() any { return dep.Monitor.Bindings() }
		if identity, err = dep.PlatformIdentity(); err != nil {
			return fmt.Errorf("export platform identity: %w", err)
		}
		log.Printf("audit transcript on: head every %d leaves, replay sample every %d batches", o.auditHeadEvery, o.auditSample)
	}
	dep.Start()

	// Declare the model's input interface so malformed requests die at
	// admission instead of inside the engine.
	o.serveCfg.ItemShapes = make(map[string][]int, len(bundle.Model.Inputs))
	for _, vi := range bundle.Model.Inputs {
		o.serveCfg.ItemShapes[vi.Name] = vi.Shape
	}
	events := dep.Engine.EventBus()
	return frontend(o, dep.Engine, dep.Engine, dep.Monitor, events,
		observability{flight: newFlightRecorder(events), audit: rec,
			auditBindings: bindings, auditIdentity: identity})
}

// frontend runs the serving front door — batching server, adaptive control
// plane, telemetry, HTTP listener, graceful drain — over any engine: the
// in-process deployment's or a cluster router's. spares and events may be
// nil (the control plane skips the corresponding loops).
func frontend(o options, eng serve.Engine, pipeline control.Pipeline,
	spares control.SparePool, events *telemetry.Bus[monitor.Event],
	obs observability) error {
	srv := serve.New(eng, o.serveCfg)
	defer srv.Close()

	// The flight recorder's source set is fixed at Start; the ladder source
	// needs the engine, so it lands here rather than in newFlightRecorder.
	// In cluster mode the router also triggers it directly (failover,
	// dissent, replica loss, demotion); in-process mode converts ladder
	// demotion events below.
	if obs.flight != nil {
		addLadderSource(obs.flight, eng)
		obs.flight.Start()
		defer obs.flight.Stop()
	}
	if obs.flight != nil && events != nil && obs.router == nil {
		evSub := events.Subscribe(64)
		defer evSub.Close()
		go func() {
			for ev := range evSub.C {
				if ev.Kind == monitor.EventLadderDemoted {
					obs.flight.Trigger(telemetry.FlightReasonDemotion)
				}
			}
		}()
	}

	if o.adaptive {
		ctl := control.New(control.Config{
			Epoch:    o.controlEpoch,
			Frontend: srv,
			Pipeline: pipeline,
			Spares:   spares,
			Events:   events,
		})
		// Every actuation is visible: log decisions as they land (they also
		// flow to mvtee_control_decisions_total and the knob gauges).
		decSub := ctl.Decisions().Subscribe(64)
		go func() {
			for d := range decSub.C {
				if d.Tenant != "" {
					log.Printf("control: %s %s %s[%s] %d -> %d (%s)", d.Loop, d.Direction, d.Knob, d.Tenant, d.From, d.To, d.Reason)
				} else {
					log.Printf("control: %s %s %s %d -> %d (%s)", d.Loop, d.Direction, d.Knob, d.From, d.To, d.Reason)
				}
				// Decisions annotate the flight timeline; sustained SLO
				// escalations open an incident.
				noteDecision(obs.flight, d)
			}
		}()
		ctl.Start()
		defer func() { ctl.Stop(); decSub.Close() }()
		log.Printf("adaptive control plane on (epoch %v); disable with -adaptive=false", o.controlEpoch)
	}

	if o.telemetryAddr != "" {
		mux := telemetry.NewMux(telemetry.Default, telemetry.DefaultTracer)
		if events != nil {
			mux.Handle("/events", telemetry.SSE(events))
		}
		mux.Handle("/debug/flight", obs.flight.Handler())
		if obs.audit != nil {
			mux.Handle("/audit", transcript.Handler(obs.audit,
				transcript.HandlerConfig{Bindings: obs.auditBindings, Identity: obs.auditIdentity}))
		}
		if obs.router != nil {
			mux.Handle("/metrics/cluster",
				clusterMetricsHandler(obs.router, newSLOBurn(o.serveCfg.Tenants)))
		}
		tln, err := net.Listen("tcp", o.telemetryAddr)
		if err != nil {
			return fmt.Errorf("telemetry listen: %w", err)
		}
		defer tln.Close()
		go func() {
			if err := http.Serve(tln, mux); err != nil && !errors.Is(err, net.ErrClosed) {
				log.Printf("telemetry server: %v", err)
			}
		}()
		log.Printf("telemetry on http://%s", tln.Addr())
	}

	ln, err := net.Listen("tcp", o.listen)
	if err != nil {
		return err
	}
	// The public front door must bound slow clients itself: without header/
	// read timeouts a trickled request holds a connection (and its partially
	// decoded body) open indefinitely, exhausting the listener before
	// admission control ever sees a request.
	hs := &http.Server{
		Handler:           serve.Handler(srv),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	protos := "json+binary"
	if o.serveCfg.DisableBinary {
		protos = "json"
	}
	log.Printf("serving on http://%s (POST /v1/infer [%s], GET /healthz; max-batch %d, window %v)",
		ln.Addr(), protos, o.serveCfg.MaxBatch, o.serveCfg.MaxDelay)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case got := <-sig:
		log.Printf("%v: draining (deadline %v)", got, o.drainTimeout)
	}
	ctx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		log.Printf("drain incomplete: %v", err)
	} else {
		log.Printf("drain complete")
	}
	return hs.Shutdown(ctx)
}
