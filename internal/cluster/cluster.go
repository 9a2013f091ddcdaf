// Package cluster is the distributed multi-variant tier: a Router that
// fronts N replica engines — mvtee-monitor processes, each serving its engine
// through a ReplicaServer and reached over securechan — behind one serving
// front door.
//
// Each replica is a complete MVX engine (monitor + diversified variant set).
// For every batch the router picks a leader by least-loaded placement over a
// rendezvous-hash candidate order, and optionally a set of follower replicas
// that cross-check the leader's work. The headline optimization is
// dMVX-style selective result forwarding: followers execute the batch on
// their own diversified variants but ship back a 45-byte digest frame of
// their outputs instead of the output tensors, and the router — the one
// party that sees every replica's answer, like the monitor TEE does for its
// variants — decides each vote by comparing that digest with the leader's.
// The steady-state cross-node verification cost is one digest frame per
// follower, O(digest bytes), not O(activation bytes). Digest equality is a
// sound verdict because the kernels are bitwise-deterministic across
// backends and parallelism (PR 1); deployments without that property run the
// tier in TensorForward mode, which ships full outputs and compares them the
// same way (the naive baseline).
//
// Replica health is driven by the degradation ladder: a replica whose
// engine demotes to halted stops receiving new batches, and its in-flight
// batches fail over to a healthy peer under the router's stable batch-ID
// namespace, so the serving tier's demux never sees a duplicate or dropped
// row. The Router implements both serve.Engine (drop-in behind the
// admission plane) and control.Pipeline (the controller's knob actuations
// fan out to every replica, scoped per replica over the wire).
package cluster

import (
	"errors"

	"repro/internal/monitor"
	"repro/internal/tensor"
	"repro/internal/wire"
)

// ForwardMode selects how follower replicas report their cross-check.
type ForwardMode int

const (
	// DigestForward ships 32-byte checkpoint digests between nodes
	// (selective result forwarding). The default.
	DigestForward ForwardMode = iota
	// TensorForward ships followers' full output tensors back to the router
	// for tolerance-band comparison — the naive replication baseline, and
	// the fallback when variant runtimes are not bitwise-deterministic.
	TensorForward
)

// Replica is the router's handle to one engine replica. The implementation is
// provided by this package (NewRemote); the interface is sealed so the router
// can evolve the internal protocol.
type Replica interface {
	// ID is the replica's stable identity (placement hashes over it).
	ID() string
	// Hello describes the replica's model interface and variant set.
	Hello() wire.ReplicaHello
	// InflightWindow reports the replica engine's current per-stage credit
	// window; SetInflightWindow retunes it (over the wire for remotes).
	InflightWindow() int
	SetInflightWindow(n int)
	// Close releases the replica handle (remote: closes the connection).
	Close() error

	// attach wires the replica to its router's event loop. submit carries
	// the encoded batch and reports the payload bytes sent, feeding the
	// router's forward-bytes accounting; trace is the router-minted
	// federation trace ID (zero when tracing is off for the batch).
	attach(idx int, events chan<- replicaEvent)
	submit(rid, trace uint64, enc []byte, inputs map[string]*tensor.Tensor, verify bool) (int, error)
	// pollMetrics requests the replica registry's snapshot (metrics
	// federation); the answer arrives as a metrics event. Best-effort.
	pollMetrics(seq uint64)
}

// replicaEvent is one upcall from a replica to the router loop. Exactly one
// of the payload fields is set.
type replicaEvent struct {
	idx     int
	res     *monitor.BatchResult // completed batch (router ID namespace)
	vote    *wire.Digest         // verification-plane frame (stage digest, or vote at Stage -1)
	status  *wire.ReplicaStatus  // health heartbeat
	spans   *wire.SpanReport     // harvested batch spans (trace federation)
	metrics *wire.MetricsReport  // registry snapshot (metrics federation)
	down    error                // replica lost (connection/engine failure)
	// wireBytes is the payload size of the frame this event decoded from.
	wireBytes int
}

// ErrNoHealthyReplica rejects submissions when every replica is down or
// halted.
var ErrNoHealthyReplica = errors.New("cluster: no healthy replica")

// ErrDivergence fails a batch whose follower cross-check dissented in
// synchronous mode.
var ErrDivergence = errors.New("cluster: cross-replica digest divergence")
