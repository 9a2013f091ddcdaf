package cluster

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/monitor"
	"repro/internal/securechan"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/tensor"
	"repro/internal/wire"
)

// e2eVariant is a wire-speaking variant over an AEAD-sealed in-memory
// channel that doubles its "x" input. When die is non-nil, the variant
// closes its connection upon the first batch whose trigger fires — the
// deterministic mid-stream crash the failover test keys on. When dissent
// fires, the variant scales by 3+seat instead of 2, so the variants of a
// stage all disagree with each other. A non-zero park models accelerator
// execution: the variant sleeps that long per batch with the host core idle.
type e2eVariant struct {
	id           string
	seat         int
	die, dissent func(in map[string]*tensor.Tensor) bool
	park         time.Duration
}

func (v *e2eVariant) start(t testing.TB) *monitor.Handle {
	t.Helper()
	monC, varC := net.Pipe()
	ready := make(chan *securechan.SecureConn, 1)
	go func() {
		vc, err := securechan.Server(varC, nil, nil)
		if err != nil {
			return
		}
		ready <- vc
		for {
			msg, err := wire.Recv(vc)
			if err != nil {
				return
			}
			switch m := msg.(type) {
			case *wire.Batch:
				if v.die != nil && v.die(m.Tensors) {
					_ = vc.Close()
					return
				}
				if v.park > 0 {
					time.Sleep(v.park)
				}
				scale := float32(2)
				if v.dissent != nil && v.dissent(m.Tensors) {
					scale = float32(3 + v.seat)
				}
				y := m.Tensors["x"].Clone()
				y.Scale(scale)
				res := &wire.Result{ID: m.ID, Trace: m.Trace, VariantID: v.id,
					Tensors: map[string]*tensor.Tensor{"y": y}}
				if err := wire.Send(vc, res); err != nil {
					return
				}
			case *wire.Shutdown:
				_ = vc.Close()
				return
			}
		}
	}()
	mc, err := securechan.Client(monC, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	<-ready
	return monitor.NewHandle(v.id, 0, "spec", mc)
}

// newClusterEngine stands up a 3-variant single-stage MVX engine whose
// variants all crash when die fires (nil die = never).
func newClusterEngine(t testing.TB, die func(in map[string]*tensor.Tensor) bool) *monitor.Engine {
	return newEngineOf(t, e2eVariant{die: die}, nil)
}

// newEngineOf stands up a 3-variant single-stage MVX engine whose variants
// (v0..v2) behave like proto, recording spans into tr (nil: the process
// default ring).
func newEngineOf(t testing.TB, proto e2eVariant, tr *telemetry.Tracer) *monitor.Engine {
	t.Helper()
	handles := make([]*monitor.Handle, 3)
	for i := range handles {
		v := proto
		v.id, v.seat = fmt.Sprintf("v%d", i), i
		handles[i] = v.start(t)
	}
	eng, err := monitor.NewEngine(monitor.EngineConfig{
		GraphInputs:  []string{"x"},
		GraphOutputs: []string{"y"},
		Stages: []monitor.StageSpec{{
			Inputs:  []string{"x"},
			Outputs: []string{"y"},
			Handles: handles,
		}},
		Metrics: telemetry.NewRegistry(),
		Tracer:  tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	t.Cleanup(eng.Stop)
	return eng
}

// startRemoteReplica serves eng over an in-memory securechan pair and
// returns the router-side handle, exercising the full wire protocol.
func startRemoteReplica(t testing.TB, id string, eng *monitor.Engine) *Remote {
	t.Helper()
	routerC, replicaC := net.Pipe()
	go func() {
		conn, err := securechan.Server(replicaC, nil, nil)
		if err != nil {
			return
		}
		_ = ServeReplica(conn, eng, ReplicaServerOptions{
			Hello: wire.ReplicaHello{
				ID:           id,
				Variants:     3,
				GraphInputs:  []string{"x"},
				GraphOutputs: []string{"y"},
			},
		})
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

// keyLeading returns a router PlacementKey under which replica ids[lead]
// comes first in rendezvous order: on an idle router it leads the next batch.
func keyLeading(ids []string, lead int) string {
	key := "test"
	for i := 0; rendezvousOrder(key, ids)[0] != lead; i++ {
		key = fmt.Sprintf("test-%d", i)
	}
	return key
}

// hasValue returns a trigger that fires on batches carrying v.
func hasValue(v float32) func(in map[string]*tensor.Tensor) bool {
	return func(in map[string]*tensor.Tensor) bool {
		for _, x := range in["x"].Data() {
			if x == v {
				return true
			}
		}
		return false
	}
}

// TestClusterHaltedLeaderFailsOver pins the halted-engine health signal: a
// replica whose engine halts on a divergence (every variant still alive, so
// no variant departure demotes a stage) must report the halted ladder ahead
// of the failed result, and the router must fail the batch over instead of
// delivering the error.
func TestClusterHaltedLeaderFailsOver(t *testing.T) {
	const poison = float32(1313)
	engA := newClusterEngine(t, nil)
	engB := newEngineOf(t, e2eVariant{dissent: hasValue(poison)}, nil)
	reg := telemetry.NewRegistry()
	router, err := NewRouter(RouterConfig{
		Replicas: []Replica{
			startRemoteReplica(t, "replica-a", engA),
			startRemoteReplica(t, "replica-b", engB),
		},
		PlacementKey:    keyLeading([]string{"replica-a", "replica-b"}, 1),
		Metrics:         reg,
		MetricsInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = router.Close() })

	for i, v := range []float32{poison, 1, 2, 3} {
		id, err := router.Submit(testInputs(v))
		if err != nil {
			t.Fatal(err)
		}
		row := readRow(t, router)
		if row.ID != id || row.Err != nil {
			t.Fatalf("batch %d (v=%v): got row %d err=%v", i, v, row.ID, row.Err)
		}
		if got := row.Tensors["y"].At(0, 0); got != 2*v {
			t.Fatalf("batch %d: y=%v want %v", i, got, 2*v)
		}
	}
	if got := reg.Counter(telemetry.MetricClusterFailovers).Value(); got != 1 {
		t.Fatalf("failovers = %d, want 1 (the poisoned batch)", got)
	}
	if got := reg.Gauge(telemetry.MetricClusterReplicaRung, telemetry.L("replica", "replica-b")).Value(); got != int64(monitor.LadderHalted) {
		t.Fatalf("replica-b rung = %d, want halted", got)
	}
}

// TestClusterReplicaFailoverE2E is the cluster analogue of the serving
// tier's TestDemuxAfterHotReplacement: many concurrent single-item requests
// stream through serve onto a 2-replica router while one remote replica's
// entire variant set crashes mid-stream, demoting its engine to halted. The
// in-flight batches on the dying replica must complete via the peer under
// their original IDs — every response carries exactly its own request's
// rows, none duplicated, none dropped.
func TestClusterReplicaFailoverE2E(t *testing.T) {
	const poison = float32(1313)
	engA := newClusterEngine(t, nil)
	engB := newClusterEngine(t, hasValue(poison))
	repA := startRemoteReplica(t, "replica-a", engA)
	repB := startRemoteReplica(t, "replica-b", engB)

	reg := telemetry.NewRegistry()
	router, err := NewRouter(RouterConfig{
		Replicas:    []Replica{repA, repB},
		Verify:      1,
		Sync:        true,
		VoteTimeout: 500 * time.Millisecond,
		Metrics:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = router.Close() })

	srv := serve.New(router, serve.Config{
		MaxBatch:    2,
		MaxDelay:    time.Millisecond,
		TenantQueue: 64,
		GlobalQueue: 256,
		Metrics:     reg,
	})
	t.Cleanup(srv.Close)

	const clients = 6
	const perClient = 20
	var poisoned atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				v := float32(1 + c*1000 + i)
				if c == 2 && i == 8 {
					v = poison // kills every variant of replica B mid-stream
					poisoned.Store(true)
				}
				x := tensor.New(1, 256)
				for j := range x.Data() {
					x.Data()[j] = v
				}
				ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
				r, err := srv.Infer(ctx, serve.Request{
					Tenant: fmt.Sprintf("t%d", c%3),
					Inputs: map[string]*tensor.Tensor{"x": x},
				})
				cancel()
				if err != nil {
					errs <- fmt.Errorf("client %d req %d (v=%v): %w", c, i, v, err)
					return
				}
				if got := r.Tensors["y"].At(0, 0); got != 2*v {
					errs <- fmt.Errorf("client %d req %d: y=%v want %v (demux mixed rows)", c, i, got, 2*v)
					return
				}
			}
			errs <- nil
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if !poisoned.Load() {
		t.Fatal("poison request never issued")
	}

	// The poisoned batch reached replica B (as leader or follower) and
	// killed its variant set; its engine must have reported halted.
	waitUntil(t, "replica B halted rung", func() bool {
		return reg.Gauge(telemetry.MetricClusterReplicaRung,
			telemetry.L("replica", "replica-b")).Value() == int64(monitor.LadderHalted)
	})
	// The cluster as a whole still serves at full capability via A.
	ladder := router.Ladder()
	if len(ladder) != 1 || ladder[0] != monitor.LadderFull {
		t.Fatalf("cluster ladder = %v, want [full] via surviving replica", ladder)
	}
	// Digest votes flowed while both replicas were healthy.
	agree := reg.Counter(telemetry.MetricClusterDigestVotes,
		telemetry.L("verdict", telemetry.DigestVoteAgree)).Value()
	if agree == 0 {
		t.Fatal("no agreeing digest votes recorded — cross-check plane never exercised")
	}
	// And the verification plane stayed digest-sized: its cumulative bytes
	// must be a small fraction of the result plane's.
	digestBytes := reg.Counter(telemetry.MetricClusterFwdBytes,
		telemetry.L("plane", telemetry.ForwardPlaneDigest)).Value()
	resultBytes := reg.Counter(telemetry.MetricClusterFwdBytes,
		telemetry.L("plane", telemetry.ForwardPlaneResult)).Value()
	if digestBytes == 0 || resultBytes == 0 {
		t.Fatalf("byte accounting missing: digest=%d result=%d", digestBytes, resultBytes)
	}
	if digestBytes*4 > resultBytes {
		t.Fatalf("digest plane %dB vs result plane %dB — selective forwarding not engaged", digestBytes, resultBytes)
	}
	t.Logf("failovers=%d agree_votes=%d digest_bytes=%d result_bytes=%d",
		reg.Counter(telemetry.MetricClusterFailovers).Value(), agree, digestBytes, resultBytes)
}

// TestClusterMixedLocalRemote routes over one in-process replica and one
// remote replica with synchronous digest verification: both vote paths (raw
// local digests compared router-side, authoritative remote verdicts) must
// agree on every batch.
func TestClusterMixedLocalRemote(t *testing.T) {
	engA := newClusterEngine(t, nil)
	engB := newClusterEngine(t, nil)
	local := NewLocal("local-a", engA, LocalOptions{
		Hello: wire.ReplicaHello{GraphInputs: []string{"x"}, GraphOutputs: []string{"y"}},
	})
	remote := startRemoteReplica(t, "remote-b", engB)

	reg := telemetry.NewRegistry()
	router, err := NewRouter(RouterConfig{
		Replicas: []Replica{local, remote},
		Verify:   1,
		Sync:     true,
		Metrics:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = router.Close() })

	const batches = 24
	ids := make(map[uint64]float32, batches)
	for i := 0; i < batches; i++ {
		v := float32(i + 1)
		x := tensor.New(1, 8)
		for j := range x.Data() {
			x.Data()[j] = v
		}
		id, err := router.Submit(map[string]*tensor.Tensor{"x": x})
		if err != nil {
			t.Fatal(err)
		}
		ids[id] = v
	}
	for i := 0; i < batches; i++ {
		row := readRow(t, router)
		v, ok := ids[row.ID]
		if !ok {
			t.Fatalf("unknown or duplicate row ID %d", row.ID)
		}
		delete(ids, row.ID)
		if row.Err != nil {
			t.Fatalf("batch %d failed: %v", row.ID, row.Err)
		}
		if got := row.Tensors["y"].At(0, 0); got != 2*v {
			t.Fatalf("batch %d: y=%v want %v", row.ID, got, 2*v)
		}
	}
	agree := reg.Counter(telemetry.MetricClusterDigestVotes,
		telemetry.L("verdict", telemetry.DigestVoteAgree)).Value()
	if agree != batches {
		t.Fatalf("agree votes = %d, want %d (every batch cross-checked)", agree, batches)
	}
}
