// Package node assembles the MVTEE daemons from their parts, each step
// written once. A node is one serving process of the paper's deployment
// (Figure 2): a monitor TEE with its variant TEEs and MVX engine, brought up
// in process (Deploy) or over a saved bundle with the variants in their own
// processes (Monitor), or a cluster router over remote monitor replicas
// (Cluster) — the per-node monitors behind a front-end router of dMVX. Over
// any of them the node runs the multi-tenant front door (StartFrontend), the
// operator endpoint (ListenOperator, Node.Handlers) and, on a monitor, the
// replica port that serves its engine to cluster routers.
//
// The package never exits the process and never waits for a signal: the
// mains (cmd/mvtee-serve, cmd/mvtee-monitor) parse flags, handle signals and
// call in here.
package node

import (
	"net/http"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/control"
	"repro/internal/monitor"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/transcript"
)

// Options is a daemon's command line.
type Options struct {
	// In-process stack (Deploy): the zoo model, its scale and input size,
	// the partition count, and the stage protected by three diverse
	// variants (-1: none).
	Model     string
	Scale     float64
	InputSize int
	Stages    int
	MVXStage  int

	// Bundle-directory monitor (Monitor).
	BundleDir string
	// VariantListen is the TCP address variant TEEs (and, with AwaitOwner,
	// the model owner) connect to.
	VariantListen string
	// SetIdx, Plans, Spares, Async, Response, StageTimeout and
	// InflightWindow are the MVX configuration provisioned from the command
	// line; AwaitOwner takes it from a connecting model owner instead.
	SetIdx         int
	Plans, Spares  []monitor.PartitionPlan
	Async          bool
	Response       monitor.ResponseMode
	StageTimeout   time.Duration
	InflightWindow int
	AwaitOwner     bool

	// ReplicaListen, when set, serves a monitor's engine to cluster routers
	// on this address (instead of a front door) under ReplicaID (default:
	// the bound address).
	ReplicaListen string
	ReplicaID     string

	// Cluster stack (Cluster): the replica addresses, the followers
	// cross-checking each batch, sync voting and the forwarding mode
	// ("digest" or "tensor").
	Replicas       []string
	ClusterVerify  int
	ClusterSync    bool
	ClusterForward string

	// Front door: the public HTTP address, the batching and admission
	// configuration, the adaptive control plane and the drain deadline.
	Listen       string
	Serve        serve.Config
	Adaptive     bool
	ControlEpoch time.Duration
	DrainTimeout time.Duration

	// TelemetryAddr is the operator endpoint's address (empty: none).
	TelemetryAddr string
	// Audit records the verifiable inference transcript; heads are signed
	// every AuditHeadEvery leaves and every AuditSample-th batch's inputs are
	// kept for replay (zero: the recorder's defaults).
	Audit          bool
	AuditHeadEvery int
	AuditSample    int
}

// Engine is what the front door and the control plane drive: a local MVX
// engine or a cluster router.
type Engine interface {
	serve.Engine
	control.Pipeline
}

// Node is a running pipeline and what surrounds it.
type Node struct {
	// Engine is what StartFrontend serves; a caller may interpose on it
	// (say, to time each layer) before starting the front door.
	Engine Engine
	// Local is the node's own MVX engine; nil on a cluster router.
	Local *monitor.Engine
	// Monitor is the node's monitor TEE, whose spare pool the control plane
	// scales; nil on a router, whose replicas each scale their own.
	Monitor *monitor.Monitor
	// Events carries the engine's security events and the flight
	// recorder's incidents (/events).
	Events *telemetry.Bus[monitor.Event]
	// ItemShapes is the model's input interface, checked at admission.
	ItemShapes map[string][]int
	// Flight is the failover black box behind /debug/flight.
	Flight *telemetry.FlightRecorder
	// Router is the cluster router (cluster stack only).
	Router *cluster.Router
	// Replicas is the replica port (with Options.ReplicaListen only).
	Replicas *ReplicaListener

	audit    *transcript.Recorder
	auditCfg transcript.HandlerConfig

	teardown
}

// Close tears the node down in reverse bring-up order: the replica port
// (closing the live router session), the engine, the transcript recorder the
// engine posts to, then the TEEs.
func (n *Node) Close() { n.teardown.run() }

// teardown runs the registered stop steps once, last registered first.
type teardown struct {
	once  sync.Once
	steps []func()
}

func (t *teardown) onClose(f func()) { t.steps = append(t.steps, f) }

func (t *teardown) run() {
	t.once.Do(func() {
		for i := len(t.steps) - 1; i >= 0; i-- {
			t.steps[i]()
		}
	})
}

// Handlers is the node's part of the operator endpoint: /events,
// /debug/flight, /audit when the node records a transcript, and on a cluster
// router /metrics/cluster with the per-tenant SLO burn of o.Serve.Tenants.
func (n *Node) Handlers(o Options) map[string]http.Handler {
	h := map[string]http.Handler{
		"/events":       telemetry.SSE(n.Events),
		"/debug/flight": n.Flight.Handler(),
	}
	if n.audit != nil {
		h["/audit"] = transcript.Handler(n.audit, n.auditCfg)
	}
	if n.Router != nil {
		h["/metrics/cluster"] = clusterMetricsHandler(n.Router, newSLOBurn(o.Serve.Tenants))
	}
	return h
}
