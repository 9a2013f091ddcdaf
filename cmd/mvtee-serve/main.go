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
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/node"
	"repro/internal/serve"
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
		"cluster mode: follower result forwarding — 'digest' (45-byte digest votes) or 'tensor' (full outputs, the naive baseline)")
	flag.Parse()
	log.SetPrefix("mvtee-serve: ")
	log.SetFlags(0)
	node.SetTraceRing(*traceRing)

	tenants, err := serve.ParseTenants(*tenantsStr, *sloDefault)
	if err != nil {
		log.Fatalf("-tenants: %v", err)
	}
	o := node.Options{
		Model: *model, Stages: *stagesN, MVXStage: *mvxStage,
		Scale: *scale, InputSize: *inputSize,
		Listen:        *listen,
		TelemetryAddr: *telemetryAddr,
		DrainTimeout:  *drainTimeout,
		Adaptive:      *adaptive,
		ControlEpoch:  *epoch,
		Serve: serve.Config{
			MaxBatch:      *maxBatch,
			MaxDelay:      *maxDelay,
			TenantQueue:   *tenantQueue,
			GlobalQueue:   *globalQueue,
			Tenants:       tenants,
			DisableBinary: !*binaryProto,
		},
		ClusterVerify:  *clusterVerify,
		ClusterSync:    *clusterSync,
		ClusterForward: *clusterForward,
		Audit:          *audit,
		AuditHeadEvery: *auditHeadEvery,
		AuditSample:    *auditSample,
	}
	if *replicas != "" {
		for _, addr := range strings.Split(*replicas, ",") {
			o.Replicas = append(o.Replicas, strings.TrimSpace(addr))
		}
	}
	if err := run(o, *replicaBundle); err != nil {
		log.Fatal(err)
	}
}

// run brings the pipeline up — in process, or as a cluster router over
// remote replicas — and serves it until SIGINT/SIGTERM, then drains.
func run(o node.Options, replicaBundle string) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var n *node.Node
	if len(o.Replicas) > 0 {
		trust, err := node.BundleTrust(replicaBundle)
		if err != nil {
			return err
		}
		if n, err = node.Cluster(o, trust); err != nil {
			return err
		}
	} else {
		bundle, err := node.BuildBundle(o)
		if err != nil {
			return err
		}
		if n, err = node.Deploy(o, bundle); err != nil {
			return err
		}
	}
	defer n.Close()
	op, err := node.ListenOperator(o.TelemetryAddr, n.Handlers(o))
	if err != nil {
		return err
	}
	defer op.Close()
	f, err := node.StartFrontend(o, n)
	if err != nil {
		return fmt.Errorf("front door: %w", err)
	}
	return f.Run(ctx)
}
