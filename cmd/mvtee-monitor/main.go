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
	"flag"
	"fmt"
	"log"
	"math/rand/v2"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/monitor"
	"repro/internal/node"
	"repro/internal/serve"
	"repro/internal/tensor"
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
		"operator telemetry HTTP listen address (e.g. 127.0.0.1:9090) serving /metrics, /trace, /events, /debug/flight, /audit and /debug/pprof/; empty disables")
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
	node.SetTraceRing(*traceRing)

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
	tenants, err := serve.ParseTenants(*serveTenants, *serveSLODefault)
	if err != nil {
		log.Fatalf("-serve-tenants: %v", err)
	}
	o := node.Options{
		BundleDir:      *bundleDir,
		VariantListen:  *listen,
		SetIdx:         *setIdx,
		Async:          *async,
		Response:       resp,
		StageTimeout:   *stageTimeout,
		InflightWindow: *inflightWindow,
		AwaitOwner:     *awaitOwner,
		ReplicaListen:  *replicaListen,
		ReplicaID:      *replicaID,
		TelemetryAddr:  *telemetryAddr,
		Audit:          *audit,
		Listen:         *serveAddr,
		Serve: serve.Config{
			MaxBatch:      *serveMaxBatch,
			MaxDelay:      *serveMaxDelay,
			Tenants:       tenants,
			DisableBinary: !*serveBinary,
		},
		Adaptive:     *serveAdaptive,
		DrainTimeout: 10 * time.Second,
		Plans:        monitor.ParsePlans(*plansStr),
	}
	if *sparesStr != "" {
		o.Spares = monitor.ParsePlans(*sparesStr)
	}
	if err := run(o, *demo, *pipelined); err != nil {
		log.Fatal(err)
	}
}

// run brings the monitor up and then, by mode, serves its engine to cluster
// routers or over the multi-tenant front door until SIGINT/SIGTERM, or runs
// the demo workload.
func run(o node.Options, demo int, pipelined bool) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	n, err := node.Monitor(o)
	if err != nil {
		return err
	}
	defer n.Close()
	op, err := node.ListenOperator(o.TelemetryAddr, n.Handlers(o))
	if err != nil {
		return err
	}
	defer op.Close()

	switch {
	case o.Listen != "":
		f, err := node.StartFrontend(o, n)
		if err != nil {
			return fmt.Errorf("front door: %w", err)
		}
		return f.Run(ctx)
	case o.ReplicaListen != "" || demo <= 0:
		// Serve until killed; a replica's engine output stream belongs to
		// its router session.
		<-ctx.Done()
		log.Printf("shutting down")
		return nil
	}
	return runDemo(n, demo, pipelined)
}

// runDemo pushes demo batches of one random input through the engine,
// sequentially or pipelined, and logs the security events.
func runDemo(n *node.Node, demo int, pipelined bool) error {
	eng := n.Local
	rng := rand.New(rand.NewPCG(42, 42))
	inputs := make(map[string]*tensor.Tensor, len(n.ItemShapes))
	for name, shape := range n.ItemShapes {
		in := tensor.New(shape...)
		d := in.Data()
		for i := range d {
			d[i] = float32(rng.NormFloat64())
		}
		inputs[name] = in
	}
	mode, start := "sequential", time.Now()
	if pipelined {
		mode = "pipelined"
		batches := make([]map[string]*tensor.Tensor, demo)
		for i := range batches {
			batches[i] = inputs
		}
		results, err := eng.Stream(batches)
		if err != nil {
			return err
		}
		for _, r := range results {
			if r.Err != nil {
				return r.Err
			}
		}
	} else {
		for i := 0; i < demo; i++ {
			r, err := eng.Infer(inputs)
			if err != nil {
				return err
			}
			log.Printf("batch %d done in %v", r.ID, r.Latency)
		}
	}
	el := time.Since(start)
	log.Printf("%s: %d batches in %v (%.2f batches/s)", mode, demo, el, float64(demo)/el.Seconds())
	for _, ev := range eng.Events() {
		log.Printf("event: %s stage=%d batch=%d variants=%v", ev.Kind, ev.Stage, ev.BatchID, ev.Variants)
	}
	return nil
}
