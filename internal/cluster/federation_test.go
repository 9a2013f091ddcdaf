package cluster

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/monitor"
	"repro/internal/securechan"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// startRemoteReplicaOpts is startRemoteReplica with caller-chosen server
// options (federated registry, span bounds).
func startRemoteReplicaOpts(t testing.TB, eng *monitor.Engine, opts ReplicaServerOptions) *Remote {
	t.Helper()
	routerC, replicaC := net.Pipe()
	go func() {
		conn, err := securechan.Server(replicaC, nil, nil)
		if err != nil {
			return
		}
		_ = ServeReplica(conn, eng, opts)
	}()
	cc, err := securechan.Client(routerC, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rem, err := NewRemote(cc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rem.Close() })
	return rem
}

// TestClusterTraceFederationE2E drives the full span-federation loop over the
// wire: two remote replicas whose engines record into private rings, so every
// span the router's ring holds for them arrived as a SpanReport frame. Every
// batch's trace must assemble the complete cross-node tree — the router's own
// route/dispatch spans plus the execution spans of both replicas (leader and
// cross-checking follower) — and the tree must stay intact through a leader
// kill at the start of a burst: failed-over batches keep their trace ID, so
// the surviving replica's spans land in the same tree as the failed
// attempt's.
func TestClusterTraceFederationE2E(t *testing.T) {
	const poison = float32(1313)
	trA, trB := telemetry.NewTracer(4096), telemetry.NewTracer(4096)
	engA := newEngineOf(t, e2eVariant{}, trA)
	engB := newEngineOf(t, e2eVariant{die: hasValue(poison)}, trB)
	repA := startRemoteReplica(t, "replica-a", engA)
	repB := startRemoteReplica(t, "replica-b", engB)

	reg := telemetry.NewRegistry()
	rtr := telemetry.NewTracer(8192)
	router, err := NewRouter(RouterConfig{
		Replicas: []Replica{repA, repB},
		Verify:   1,
		Sync:     true,
		// B leads on an idle router, so B leads the poisoned batch below by
		// construction, not by timing.
		PlacementKey:    keyLeading([]string{"replica-a", "replica-b"}, 1),
		VoteTimeout:     500 * time.Millisecond,
		Metrics:         reg,
		Tracer:          rtr,
		MetricsInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = router.Close() })

	// nodesFor maps a batch ID to the set of nodes contributing spans to its
	// trace ("" is the router itself).
	nodesFor := func(id uint64) map[string]bool {
		spans := rtr.Snapshot()
		var trace uint64
		for _, s := range spans {
			if s.Batch == id && s.Name == "route" && s.Replica == "" {
				trace = s.Trace
			}
		}
		if trace == 0 {
			return nil
		}
		nodes := map[string]bool{}
		for _, s := range spans {
			if s.Trace == trace {
				nodes[s.Replica] = true
			}
		}
		return nodes
	}

	// Phase 1: sequential batches while both replicas are healthy. Each trace
	// must federate router spans plus both replicas' (one led, one verified).
	for i := 0; i < 8; i++ {
		v := float32(i + 1)
		id, err := router.Submit(testInputs(v))
		if err != nil {
			t.Fatal(err)
		}
		row := readRow(t, router)
		if row.ID != id || row.Err != nil {
			t.Fatalf("batch %d: got row %d err=%v", id, row.ID, row.Err)
		}
		if got := row.Tensors["y"].At(0, 0); got != 2*v {
			t.Fatalf("batch %d: y=%v want %v", id, got, 2*v)
		}
		waitUntil(t, fmt.Sprintf("batch %d spans from router and both replicas", id), func() bool {
			n := nodesFor(id)
			return n[""] && n["replica-a"] && n["replica-b"]
		})
	}

	// The merged replica spans include the engines' root "batch" spans, and
	// their Replica stamp came from the report header, not the wire payload.
	foundBatchSpan := false
	for _, s := range rtr.Snapshot() {
		if s.Name == "batch" && (s.Replica == "replica-a" || s.Replica == "replica-b") {
			foundBatchSpan = true
			break
		}
	}
	if !foundBatchSpan {
		t.Fatal("no replica-side engine 'batch' span federated into the router ring")
	}

	// Phase 2: a rapid burst led by a poisoned batch. Phase 1 left the router
	// idle, so B leads the poison; it kills B's whole variant set, B halts,
	// and the poison plus every other B-led batch fail over to A under their
	// original IDs and trace IDs.
	const burst = 30
	ids := make(map[uint64]float32, burst)
	burstIDs := make([]uint64, 0, burst)
	for i := 0; i < burst; i++ {
		v := float32(100 + i)
		if i == 0 {
			v = poison
		}
		id, err := router.Submit(testInputs(v))
		if err != nil {
			t.Fatal(err)
		}
		ids[id] = v
		burstIDs = append(burstIDs, id)
	}
	for i := 0; i < burst; i++ {
		var row monitor.BatchResult
		select {
		case row = <-router.Outputs():
		case <-time.After(20 * time.Second):
			t.Fatalf("no result row for burst batch %d/%d (failovers=%d)", i, burst,
				reg.Counter(telemetry.MetricClusterFailovers).Value())
		}
		v, ok := ids[row.ID]
		if !ok {
			t.Fatalf("unknown or duplicate row ID %d", row.ID)
		}
		delete(ids, row.ID)
		if row.Err != nil {
			t.Fatalf("batch %d (v=%v) failed: %v", row.ID, v, row.Err)
		}
		if got := row.Tensors["y"].At(0, 0); got != 2*v {
			t.Fatalf("batch %d: y=%v want %v", row.ID, got, 2*v)
		}
	}
	waitUntil(t, "a failover during the poisoned burst", func() bool {
		return reg.Counter(telemetry.MetricClusterFailovers).Value() >= 1
	})

	// Trace continuity through the kill: every burst batch — including the
	// failed-over ones — still assembles router spans plus the surviving
	// replica's execution spans under one trace ID.
	for _, id := range burstIDs {
		waitUntil(t, fmt.Sprintf("burst batch %d spans from router and replica-a", id), func() bool {
			n := nodesFor(id)
			return n[""] && n["replica-a"]
		})
	}

	// The span plane was exercised and accounted on its own counters.
	if reg.Counter(telemetry.MetricClusterSpanReports).Value() == 0 {
		t.Fatal("no span reports counted")
	}
	if reg.Counter(telemetry.MetricClusterSpansMerged).Value() == 0 {
		t.Fatal("no merged spans counted")
	}
	if reg.Counter(telemetry.MetricClusterSpanBytes).Value() == 0 {
		t.Fatal("no span-plane bytes counted")
	}
	t.Logf("failovers=%d span_reports=%d spans_merged=%d span_bytes=%d",
		reg.Counter(telemetry.MetricClusterFailovers).Value(),
		reg.Counter(telemetry.MetricClusterSpanReports).Value(),
		reg.Counter(telemetry.MetricClusterSpansMerged).Value(),
		reg.Counter(telemetry.MetricClusterSpanBytes).Value())
}

// TestClusterMetricsFederation exercises both poll paths: a Local replica
// answering from its configured registry synchronously, and a remote replica
// whose snapshot rides MetricsPoll/MetricsReport frames over the status
// channel. ClusterMetrics must surface both with their series intact.
func TestClusterMetricsFederation(t *testing.T) {
	engA := newClusterEngine(t, nil)
	engB := newClusterEngine(t, nil)

	regA := telemetry.NewRegistry()
	regA.Counter("test_local_batches_total").Add(7)
	local := NewLocal("local-a", engA, LocalOptions{
		Hello:   wire.ReplicaHello{GraphInputs: []string{"x"}, GraphOutputs: []string{"y"}},
		Metrics: regA,
	})

	regB := telemetry.NewRegistry()
	regB.Gauge("test_remote_queue").Set(3)
	regB.Histogram("test_remote_ns").Observe(1000)
	remote := startRemoteReplicaOpts(t, engB, ReplicaServerOptions{
		Hello: wire.ReplicaHello{
			ID:           "remote-b",
			Variants:     3,
			GraphInputs:  []string{"x"},
			GraphOutputs: []string{"y"},
		},
		Metrics: regB,
	})

	reg := telemetry.NewRegistry()
	router, err := NewRouter(RouterConfig{
		Replicas:        []Replica{local, remote},
		Metrics:         reg,
		Tracer:          telemetry.NewTracer(64),
		MetricsInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = router.Close() })

	series := func(rep, name string) *telemetry.MetricSnapshot {
		for _, rm := range router.ClusterMetrics() {
			if rm.Replica != rep {
				continue
			}
			for i := range rm.Series {
				if rm.Series[i].Name == name {
					return &rm.Series[i]
				}
			}
		}
		return nil
	}
	waitUntil(t, "both replicas federate metrics", func() bool {
		return series("local-a", "test_local_batches_total") != nil &&
			series("remote-b", "test_remote_ns") != nil
	})

	if s := series("local-a", "test_local_batches_total"); s.Kind != "counter" || s.Value != 7 {
		t.Fatalf("local counter snapshot = %+v, want counter value 7", s)
	}
	if s := series("remote-b", "test_remote_queue"); s == nil || s.Kind != "gauge" || s.Value != 3 {
		t.Fatalf("remote gauge snapshot = %+v, want gauge value 3", s)
	}
	if s := series("remote-b", "test_remote_ns"); s.Kind != "histogram" || s.Count != 1 {
		t.Fatalf("remote histogram snapshot = %+v, want histogram count 1", s)
	}
	if reg.Counter(telemetry.MetricClusterMetricPolls).Value() == 0 {
		t.Fatal("no metric polls counted")
	}
	for _, rm := range router.ClusterMetrics() {
		if rm.Age < 0 || rm.Age > time.Minute {
			t.Fatalf("replica %s snapshot age %v out of range", rm.Replica, rm.Age)
		}
	}
}

// TestClusterLocalSharedTracerNoDuplicateSpans pins the single-process
// deployment's dedup rule: when a Local replica's engine records into the
// router's own ring, its spans are already co-resident and must not be
// re-shipped as span reports (which would double-count every span).
func TestClusterLocalSharedTracerNoDuplicateSpans(t *testing.T) {
	shared := telemetry.NewTracer(1024)
	eng := newEngineOf(t, e2eVariant{}, shared)
	local := NewLocal("local-a", eng, LocalOptions{
		Hello: wire.ReplicaHello{GraphInputs: []string{"x"}, GraphOutputs: []string{"y"}},
	})

	reg := telemetry.NewRegistry()
	router, err := NewRouter(RouterConfig{
		Replicas:        []Replica{local},
		Metrics:         reg,
		Tracer:          shared,
		MetricsInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = router.Close() })

	id, err := router.Submit(testInputs(2))
	if err != nil {
		t.Fatal(err)
	}
	row := readRow(t, router)
	if row.ID != id || row.Err != nil {
		t.Fatalf("row %d err=%v", row.ID, row.Err)
	}
	var trace uint64
	waitUntil(t, "route span in the shared ring", func() bool {
		for _, s := range shared.Snapshot() {
			if s.Batch == id && s.Name == "route" {
				trace = s.Trace
				return true
			}
		}
		return false
	})
	// Give a (wrongly emitted) span report time to arrive, then count.
	time.Sleep(20 * time.Millisecond)
	batchSpans := 0
	for _, s := range shared.Snapshot() {
		if s.Trace != trace {
			continue
		}
		if s.Replica != "" {
			t.Fatalf("span %q re-shipped with replica stamp %q — shared-ring dedup broken", s.Name, s.Replica)
		}
		if s.Name == "batch" {
			batchSpans++
		}
	}
	if batchSpans != 1 {
		t.Fatalf("trace holds %d engine 'batch' spans, want exactly 1", batchSpans)
	}
	if n := reg.Counter(telemetry.MetricClusterSpanReports).Value(); n != 0 {
		t.Fatalf("%d span reports from a shared-ring local replica, want 0", n)
	}
}

// TestClusterFailoverFlightIncident is the leader-kill chaos check for the
// flight recorder: killing the leader mid-batch must leave one complete
// incident — reason replica_down, a non-empty before-window, a full
// after-window that captured the degraded state, and the follow-on failover
// trigger coalesced into a note rather than opening an overlapping record.
func TestClusterFailoverFlightIncident(t *testing.T) {
	a, b := newFake("a"), newFake("b")
	freg := telemetry.NewRegistry()
	// Incidents ship to the serving event bus exactly as mvtee-serve wires
	// them, so a live /events subscriber sees the freeze as it happens.
	bus := telemetry.NewBus[monitor.Event](16)
	sub := bus.Subscribe(4)
	t.Cleanup(sub.Close)
	fr := telemetry.NewFlightRecorder(telemetry.FlightConfig{
		Interval:    2 * time.Millisecond,
		Window:      16,
		PostSamples: 4,
		Metrics:     freg,
		OnIncident: func(inc telemetry.Incident) {
			bus.Publish(monitor.Event{
				Kind:   monitor.EventFlightIncident,
				Stage:  -1,
				Detail: inc.Reason,
				Time:   time.Unix(0, inc.At),
			})
		},
	})
	var up atomic.Int64
	up.Store(2)
	fr.AddSource("replicas_up", up.Load)
	fr.Start()
	t.Cleanup(fr.Stop)

	reg := telemetry.NewRegistry()
	router, err := NewRouter(RouterConfig{
		Replicas:        []Replica{a, b},
		Verify:          1,
		Metrics:         reg,
		Tracer:          telemetry.NewTracer(64),
		MetricsInterval: -1,
		Flight:          fr,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = router.Close() })

	// Let the sampler build a before-window, then kill the leader mid-batch.
	time.Sleep(20 * time.Millisecond)
	id, err := router.Submit(testInputs(1))
	if err != nil {
		t.Fatal(err)
	}
	lead, follow := leaderAndFollower(t, a, b)
	up.Store(1)
	lead.post(replicaEvent{down: errors.New("chaos: leader killed")})
	waitUntil(t, "failover resubmission", func() bool { return follow.subCount() >= 2 })
	follow.post(replicaEvent{res: &monitor.BatchResult{ID: follow.lastSub(t).rid, Tensors: testOutputs(1)}})
	row := readRow(t, router)
	if row.ID != id || row.Err != nil {
		t.Fatalf("failed-over batch: row %d err=%v", row.ID, row.Err)
	}

	waitUntil(t, "a complete flight incident", func() bool {
		incs := fr.Incidents()
		return len(incs) == 1 && incs[0].Complete
	})
	inc := fr.Incidents()[0]
	if inc.Reason != telemetry.FlightReasonReplicaDown {
		t.Fatalf("incident reason %q, want %q", inc.Reason, telemetry.FlightReasonReplicaDown)
	}
	if len(inc.Before) == 0 {
		t.Fatal("incident has no before-window — the ring was empty at trigger time")
	}
	if len(inc.After) != 4 {
		t.Fatalf("after-window has %d samples, want 4", len(inc.After))
	}
	if last := inc.After[len(inc.After)-1]; last.Values[0] != 1 {
		t.Fatalf("after-window missed the replica loss: last sample %v, want replicas_up=1", last.Values)
	}
	coalesced := false
	for _, n := range inc.Notes {
		if n.Text == "trigger: "+telemetry.FlightReasonFailover {
			coalesced = true
		}
	}
	if !coalesced {
		t.Fatalf("failover trigger not coalesced into the open incident; notes: %v", inc.Notes)
	}
	if n := freg.Counter(telemetry.MetricFlightIncidents,
		telemetry.L("reason", telemetry.FlightReasonReplicaDown)).Value(); n != 1 {
		t.Fatalf("replica_down incident counter = %d, want 1", n)
	}

	// The live subscriber saw the incident on the event bus (coalesced
	// re-triggers ship nothing, so exactly one event arrives).
	select {
	case ev := <-sub.C:
		if ev.Kind != monitor.EventFlightIncident || ev.Detail != telemetry.FlightReasonReplicaDown {
			t.Fatalf("bus event = %+v, want flight-incident replica_down", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("incident never reached the event bus")
	}
	select {
	case ev := <-sub.C:
		t.Fatalf("unexpected second bus event %+v — coalesced trigger re-shipped", ev)
	default:
	}
}
