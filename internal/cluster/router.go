package cluster

import (
	"errors"
	"fmt"
	"time"

	"sync"

	"repro/internal/check"
	"repro/internal/monitor"
	"repro/internal/telemetry"
	"repro/internal/tensor"
	"repro/internal/transcript"
	"repro/internal/wire"
)

// ErrRouterStopped is returned by Submit after Close.
var ErrRouterStopped = errors.New("cluster: router stopped")

// RouterConfig configures the cluster tier's front door.
type RouterConfig struct {
	// Replicas are the engine replicas to route over; at least one.
	Replicas []Replica
	// Verify is the number of follower replicas that cross-check each batch.
	// Zero disables cross-checking (pure load balancing with failover).
	Verify int
	// Mode selects how followers report: DigestForward (the default, 45-byte
	// digest frames) or TensorForward (full output tensors, the naive
	// baseline). The router decides every vote the same way in both.
	Mode ForwardMode
	// Sync holds each result until every follower vote is accounted, failing
	// the batch with ErrDivergence on dissent. Async (the default) delivers
	// at the leader's result; a later dissent cannot recall the row, so it
	// reaches the vote counters and the batch's audit leaf only.
	Sync bool
	// PlacementKey seeds the rendezvous candidate order (typically the model
	// ID); routers sharing a key and replica set prefer the same leaders.
	PlacementKey string
	// Metrics receives the cluster series; nil disables.
	Metrics *telemetry.Registry
	// Tracer receives the router's own spans and the merged replica span
	// reports (trace federation); nil uses telemetry.DefaultTracer, so
	// /trace on the router process serves the full cross-node tree.
	Tracer *telemetry.Tracer
	// Flight, when set, receives incident triggers (failover, dissent,
	// replica down, ladder demotion) so /debug/flight captures a
	// before/after window around every cluster health event. Optional.
	Flight *telemetry.FlightRecorder
	// Transcript, when set, receives one audit leaf per batch served clean,
	// posted once every follower has resolved (agree, dissent, abstain or
	// the vote timeout): the first-seen checkpoint digests, every vote, and
	// the served output digest, keyed by the federation trace ID. Record
	// never blocks, so it is safe under r.mu. Optional.
	Transcript *transcript.Recorder
}

// pendingBatch is one open batch in the router's ID namespace.
type pendingBatch struct {
	id     uint64
	trace  uint64 // federation trace ID, zero when tracing is off
	inputs map[string]*tensor.Tensor
	leader int
	// followers tracks replica indices whose vote is still outstanding.
	followers map[int]bool
	res       *monitor.BatchResult // leader result, held in sync mode
	resAt     time.Time            // when the leader result arrived (vote timeout base)
	leaderSum check.Digest         // digest of res's outputs: every vote's reference
	delivered bool
	dissent   bool
	// served is set when the row went out clean, which earns the batch an
	// audit leaf: its resolved votes and the leader's rung at delivery.
	served bool
	votes  []transcript.Vote
	rung   uint8
	// earlyVotes parks follower digests that arrived before the leader's
	// result fixed the reference sum.
	earlyVotes map[int]check.Digest
	// stageSums holds the first-seen digest per checkpoint stage for
	// best-effort early dissent detection (owner index + sum).
	stageSums map[int32]stageSum
	retries   int
	born      time.Time
}

type stageSum struct {
	idx int
	sum check.Digest
}

type replicaState struct {
	up       bool
	ladder   []int
	spares   int
	inflight int // outstanding leader batches
	checks   int // outstanding follower cross-checks
	worst    int // last heartbeat's worst rung (demotion trigger edge)
}

// replicaMetricsState is the latest federated snapshot from one replica.
type replicaMetricsState struct {
	at     time.Time
	series []telemetry.MetricSnapshot
}

// ReplicaMetrics is one replica's most recent metrics-federation snapshot,
// as served by ClusterMetrics (and /metrics/cluster on mvtee-serve).
type ReplicaMetrics struct {
	Replica string
	Age     time.Duration
	Series  []telemetry.MetricSnapshot
}

// Router fronts N replica engines as one serve.Engine: it places each batch
// on a leader replica, fans cross-check work to followers, decides their
// votes against the leader's digest, and fails batches over when a replica
// goes down or halts — all under its own stable batch-ID namespace, so the
// serving tier's demux is oblivious to which replica served what. It also
// implements control.Pipeline: the controller's window actuations fan out to
// every replica.
type Router struct {
	cfg    RouterConfig
	reps   []Replica
	order  []int // rendezvous candidate order for PlacementKey
	tracer *telemetry.Tracer

	out      chan monitor.BatchResult
	deliverq chan monitor.BatchResult
	events   chan replicaEvent
	slots    chan struct{}
	stop     chan struct{}
	once     sync.Once
	wg       sync.WaitGroup
	// dispatchWG tracks the per-batch dispatch and failover-resubmission
	// goroutines: Submit returns as soon as the batch is placed and
	// registered, and the marshal + seal + socket write happen off the
	// caller's goroutine — the serving scheduler's flush loop must never stall
	// on the wire.
	dispatchWG sync.WaitGroup
	nextID     uint64 // guarded by mu

	mu         sync.Mutex
	closed     bool
	state      []replicaState
	pending    map[uint64]*pendingBatch
	pollSeq    uint64
	repMetrics []replicaMetricsState

	m routerMetrics
}

type routerMetrics struct {
	replicas    *telemetry.Gauge
	batches     *telemetry.Counter
	failovers   *telemetry.Counter
	routeNs     *telemetry.Histogram
	dissent     *telemetry.Counter
	votes       [3]*telemetry.Counter // agree, dissent, abstain
	fwd         [3]*telemetry.Counter // input, result, digest planes
	up          []*telemetry.Gauge
	rung        []*telemetry.Gauge
	inflight    []*telemetry.Gauge
	spanReports *telemetry.Counter
	spansMerged *telemetry.Counter
	spanBytes   *telemetry.Counter
	polls       *telemetry.Counter
}

const (
	voteAgree = iota
	voteDissent
	voteAbstain
)

const (
	planeInput = iota
	planeResult
	planeDigest
)

const (
	// maxInFlight caps batches the router holds open; Submit blocks at the
	// cap. It stays below each engine's own in-flight ceiling so replica
	// submission never wedges on engine backpressure.
	maxInFlight = 64
	// maxRetries bounds failover resubmissions per batch.
	maxRetries = 2
	// voteTimeout bounds how long a delivered-or-deliverable batch waits for
	// follower votes before the stragglers are counted as abstentions.
	voteTimeout = 2 * time.Second
	// metricsInterval is the metrics-federation poll cadence over each
	// replica's status channel.
	metricsInterval = 2 * time.Second
)

// NewRouter validates the configuration, attaches every replica and starts
// the routing loop.
func NewRouter(cfg RouterConfig) (*Router, error) {
	return newRouter(cfg, voteTimeout, metricsInterval)
}

// newRouter is NewRouter with the follower-vote timeout and the
// metrics-federation poll cadence as parameters (a non-positive poll turns
// federation polling off), so tests can shorten or silence them.
func newRouter(cfg RouterConfig, vote, poll time.Duration) (*Router, error) {
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("cluster: no replicas")
	}
	if cfg.Verify >= len(cfg.Replicas) {
		return nil, fmt.Errorf("cluster: verify %d needs %d replicas, have %d",
			cfg.Verify, cfg.Verify+1, len(cfg.Replicas))
	}
	if cfg.Verify < 0 {
		return nil, errors.New("cluster: negative verify")
	}
	if cfg.PlacementKey == "" {
		cfg.PlacementKey = "default"
	}
	if cfg.Tracer == nil {
		cfg.Tracer = telemetry.DefaultTracer
	}
	ids := make([]string, len(cfg.Replicas))
	seen := make(map[string]bool, len(ids))
	for i, rep := range cfg.Replicas {
		ids[i] = rep.ID()
		if seen[ids[i]] {
			return nil, fmt.Errorf("cluster: duplicate replica ID %q", ids[i])
		}
		seen[ids[i]] = true
	}
	r := &Router{
		cfg:    cfg,
		reps:   cfg.Replicas,
		order:  rendezvousOrder(cfg.PlacementKey, ids),
		tracer: cfg.Tracer,
		// deliverq is buffered to the in-flight cap so enqueueing a result
		// under the router lock can never block: every open batch owns one
		// slot and delivers at most once. The delivery goroutine moves rows
		// to out, so consumer backpressure stalls slots, never the lock.
		out:      make(chan monitor.BatchResult, maxInFlight),
		deliverq: make(chan monitor.BatchResult, maxInFlight),
		events:   make(chan replicaEvent, 4*len(cfg.Replicas)+64),
		slots:    make(chan struct{}, maxInFlight),
		stop:     make(chan struct{}),
		state:    make([]replicaState, len(cfg.Replicas)),
		pending:  make(map[uint64]*pendingBatch),
	}
	r.repMetrics = make([]replicaMetricsState, len(cfg.Replicas))
	for i := range r.state {
		// Replicas start healthy-until-told-otherwise; the initial status
		// heartbeat (sent at attach) corrects this within one event.
		r.state[i] = replicaState{up: true, worst: int(monitor.LadderFull)}
	}
	r.initMetrics(ids)
	for i, rep := range r.reps {
		rep.attach(i, r.events)
	}
	r.wg.Add(3)
	go r.loop()
	go r.delivery()
	go r.sweeper(vote)
	if poll > 0 {
		r.wg.Add(1)
		go r.collector(poll)
	}
	return r, nil
}

func (r *Router) initMetrics(ids []string) {
	// The per-replica slices are always allocated; with no registry their
	// elements stay nil and every Gauge/Counter method is a nil-safe no-op.
	r.m.up = make([]*telemetry.Gauge, len(ids))
	r.m.rung = make([]*telemetry.Gauge, len(ids))
	r.m.inflight = make([]*telemetry.Gauge, len(ids))
	reg := r.cfg.Metrics
	if reg == nil {
		return
	}
	r.m.replicas = reg.Gauge(telemetry.MetricClusterReplicas)
	r.m.replicas.Set(int64(len(ids)))
	r.m.batches = reg.Counter(telemetry.MetricClusterBatches)
	r.m.failovers = reg.Counter(telemetry.MetricClusterFailovers)
	r.m.routeNs = reg.Histogram(telemetry.MetricClusterRouteNs)
	r.m.dissent = reg.Counter(telemetry.MetricClusterStageDissent)
	for i, v := range []string{telemetry.DigestVoteAgree, telemetry.DigestVoteDissent, telemetry.DigestVoteAbstain} {
		r.m.votes[i] = reg.Counter(telemetry.MetricClusterDigestVotes, telemetry.L("verdict", v))
	}
	for i, p := range []string{telemetry.ForwardPlaneInput, telemetry.ForwardPlaneResult, telemetry.ForwardPlaneDigest} {
		r.m.fwd[i] = reg.Counter(telemetry.MetricClusterFwdBytes, telemetry.L("plane", p))
	}
	r.m.spanReports = reg.Counter(telemetry.MetricClusterSpanReports)
	r.m.spansMerged = reg.Counter(telemetry.MetricClusterSpansMerged)
	r.m.spanBytes = reg.Counter(telemetry.MetricClusterSpanBytes)
	r.m.polls = reg.Counter(telemetry.MetricClusterMetricPolls)
	for i, id := range ids {
		l := telemetry.L("replica", id)
		r.m.up[i] = reg.Gauge(telemetry.MetricClusterReplicaUp, l)
		r.m.up[i].Set(1)
		r.m.rung[i] = reg.Gauge(telemetry.MetricClusterReplicaRung, l)
		r.m.inflight[i] = reg.Gauge(telemetry.MetricClusterInflight, l)
	}
}

// Close stops routing and closes every replica handle. In-flight batches are
// failed with ErrRouterStopped by the loop shutting down.
func (r *Router) Close() error {
	r.once.Do(func() { close(r.stop) })
	// Refuse new submissions before closing the connections: Submit's
	// dispatchWG.Add must not race Close's Wait.
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	var err error
	for _, rep := range r.reps {
		if e := rep.Close(); e != nil && err == nil {
			err = e
		}
	}
	// In-flight dispatch sends fail fast once the connections are down and
	// resolve through failover, so this wait is bounded.
	r.dispatchWG.Wait()
	r.wg.Wait()
	return err
}

// Outputs returns the completed-batch stream (serve.Engine).
func (r *Router) Outputs() <-chan monitor.BatchResult { return r.out }

// Ladder reports the element-wise best rung across healthy replicas: the
// capability the cluster can still serve, which is what admission should
// gate on (serve.Engine, control.Pipeline).
func (r *Router) Ladder() []monitor.LadderRung {
	r.mu.Lock()
	defer r.mu.Unlock()
	var best []int
	for i := range r.state {
		st := &r.state[i]
		if !st.up {
			continue
		}
		for j, rung := range st.ladder {
			if j >= len(best) {
				best = append(best, rung)
			} else if rung > best[j] {
				best[j] = rung
			}
		}
	}
	out := make([]monitor.LadderRung, len(best))
	for i, rung := range best {
		out[i] = monitor.LadderRung(rung)
	}
	return out
}

// InflightWindow reports the widest replica window (control.Pipeline).
func (r *Router) InflightWindow() int {
	w := 0
	for _, rep := range r.reps {
		if rw := rep.InflightWindow(); rw > w {
			w = rw
		}
	}
	return w
}

// SetInflightWindow fans the controller's window actuation to every replica
// (control.Pipeline). Remote replicas receive it as a scoped ReplicaTune.
func (r *Router) SetInflightWindow(n int) {
	for _, rep := range r.reps {
		rep.SetInflightWindow(n)
	}
}

// healthy reports whether a replica can accept new work: up and no halted
// stage on its last heartbeat.
func (st *replicaState) healthy() bool {
	if !st.up {
		return false
	}
	for _, rung := range st.ladder {
		if rung == int(monitor.LadderHalted) {
			return false
		}
	}
	return true
}

// place picks a leader and follower set: the least-loaded healthy replica in
// rendezvous order leads (ties go to the earlier candidate), the next
// healthy candidates follow. Caller holds r.mu.
func (r *Router) place(exclude int) (leader int, followers []int, err error) {
	leader = -1
	for _, idx := range r.order {
		st := &r.state[idx]
		if idx == exclude || !st.healthy() {
			continue
		}
		if leader < 0 || st.inflight < r.state[leader].inflight {
			leader = idx
		}
	}
	if leader < 0 {
		return 0, nil, ErrNoHealthyReplica
	}
	for _, idx := range r.order {
		if len(followers) == r.cfg.Verify {
			break
		}
		if idx == leader || idx == exclude || !r.state[idx].healthy() {
			continue
		}
		followers = append(followers, idx)
	}
	return leader, followers, nil
}

// Submit routes one batch (serve.Engine): leader placement and registration
// happen inline, then the encode-once dispatch to the leader and followers
// runs on its own goroutine — the marshal, seal and socket writes must not
// ride the caller's critical path, or the serving scheduler's flush loop
// serializes with the wire and a multi-replica tier can never out-run one
// engine.
// Blocks at maxInFlight.
func (r *Router) Submit(inputs map[string]*tensor.Tensor) (uint64, error) {
	select {
	case r.slots <- struct{}{}:
	case <-r.stop:
		return 0, ErrRouterStopped
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		<-r.slots
		return 0, ErrRouterStopped
	}
	r.nextID++
	id := r.nextID
	leader, followers, err := r.place(-1)
	if err != nil {
		r.mu.Unlock()
		<-r.slots
		return 0, err
	}
	pb := &pendingBatch{
		id: id,
		// One federation trace ID per routed batch: every replica engine the
		// batch touches records its spans under it, and the harvested reports
		// merge back into r.tracer as one cross-node tree.
		trace:     telemetry.NewTraceID(),
		inputs:    inputs,
		leader:    leader,
		followers: make(map[int]bool, len(followers)),
		born:      time.Now(),
	}
	for _, f := range followers {
		pb.followers[f] = true
	}
	r.pending[id] = pb
	r.noteDispatch(pb, +1)
	r.dispatchWG.Add(1)
	r.mu.Unlock()
	r.m.batches.Inc()
	go func() {
		defer r.dispatchWG.Done()
		if err := r.dispatch(pb, leader, followers); err != nil {
			// The leader send failed outright; fail over immediately rather
			// than waiting for its down event.
			r.failover(pb.id, leader, err)
		}
	}()
	return id, nil
}

// noteDispatch adjusts per-replica load accounting for a batch's current
// role assignment. Caller holds r.mu.
func (r *Router) noteDispatch(pb *pendingBatch, delta int) {
	r.state[pb.leader].inflight += delta
	r.m.inflight[pb.leader].Set(int64(r.state[pb.leader].inflight))
	for f := range pb.followers {
		r.state[f].checks += delta
	}
}

// dispatch encodes the batch once and sends it to the leader (as TBatch) and
// followers (retagged TVerify in digest mode; TBatch in tensor mode, so
// followers ship full results). The followers are sent the batch even when
// the leader send fails: they are compared against whichever leader answers.
// Returns the leader send's error. Runs outside r.mu: sends can block on
// sockets.
func (r *Router) dispatch(pb *pendingBatch, leader int, followers []int) error {
	start := time.Now()
	buf := wire.MarshalBatch(&wire.Batch{ID: pb.id, Trace: pb.trace, Tensors: pb.inputs})
	defer buf.Free()
	payload := buf.Payload()
	n, leaderErr := r.reps[leader].submit(pb.id, pb.trace, payload, pb.inputs, false)
	r.m.fwd[planeInput].Add(uint64(n))
	if pb.trace != 0 && leaderErr == nil {
		// The leader cannot answer before the batch has left the router, so
		// an answer already in bounds the send. Without the bound the span
		// would end when this goroutine next ran, which on a busy host is
		// after the leader answered and route closed.
		end := time.Now()
		r.mu.Lock()
		if pb.res != nil && pb.resAt.Before(end) {
			end = pb.resAt
		}
		r.mu.Unlock()
		r.tracer.Record(telemetry.Span{
			Trace: pb.trace, Batch: pb.id, Name: "dispatch", Stage: -1,
			Start: start.UnixNano(), End: end.UnixNano(),
		})
	}
	verify := r.cfg.Mode == DigestForward
	if verify {
		wire.RetagVerify(payload)
	}
	for _, f := range followers {
		n, err := r.reps[f].submit(pb.id, pb.trace, payload, pb.inputs, verify)
		r.m.fwd[planeInput].Add(uint64(n))
		if err != nil {
			// A follower we cannot reach abstains; the batch proceeds.
			r.mu.Lock()
			r.applyVoteLocked(pb, f, voteAbstain, check.Digest{})
			r.completeLocked(pb)
			r.mu.Unlock()
		}
	}
	return leaderErr
}

// loop is the router's event consumer: results, votes, heartbeats and
// failures all funnel through here.
func (r *Router) loop() {
	defer r.wg.Done()
	for {
		select {
		case ev := <-r.events:
			switch {
			case ev.res != nil:
				r.onResult(ev)
			case ev.vote != nil:
				r.onVote(ev)
			case ev.status != nil:
				r.onStatus(ev)
			case ev.spans != nil:
				r.onSpans(ev)
			case ev.metrics != nil:
				r.onMetrics(ev)
			case ev.down != nil:
				r.onDown(ev)
			}
		case <-r.stop:
			r.drainPending()
			return
		}
	}
}

// drainPending fails every open batch on shutdown so serve's demux rows
// resolve instead of leaking. A row already served still earns its audit
// leaf, with its outstanding followers resolved as abstentions.
func (r *Router) drainPending() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for id, pb := range r.pending {
		delete(r.pending, id)
		if pb.served {
			for f := range pb.followers {
				r.applyVoteLocked(pb, f, voteAbstain, check.Digest{})
			}
			r.recordLocked(pb)
		}
		if !pb.delivered {
			// Bypass the delivery queue: its goroutine may already have
			// drained and exited. Best-effort — the consumer is shutting
			// down with us.
			pb.delivered = true
			select {
			case r.out <- monitor.BatchResult{ID: id, Err: ErrRouterStopped}:
			default:
			}
		}
	}
}

// onResult handles a replica's completed batch: the leader's is the batch
// result; a follower's (tensor mode) is digested here into its vote.
func (r *Router) onResult(ev replicaEvent) {
	r.m.fwd[planeResult].Add(uint64(ev.wireBytes))
	res := ev.res
	r.mu.Lock()
	defer r.mu.Unlock()
	pb := r.pending[res.ID]
	if pb == nil {
		return // stale: already delivered or failed over and resolved
	}
	if ev.idx != pb.leader {
		// A follower's full result, or a stale pre-failover leader result
		// (not a follower, so followerVoteLocked ignores it).
		var sum check.Digest
		if res.Err == nil {
			sum = check.DigestOf(res.Tensors)
		}
		r.followerVoteLocked(pb, ev.idx, sum)
		r.completeLocked(pb)
		return
	}
	if res.Err != nil && pb.retries < maxRetries && !r.state[ev.idx].healthy() {
		// The leader failed the batch and its engine is degraded past
		// serving: treat as replica failure, not batch failure.
		r.failoverLocked(pb, ev.idx, res.Err)
		return
	}
	// The leader result stands: fix the reference digest and decide the
	// votes parked before it.
	pb.res, pb.resAt = res, time.Now()
	if res.Err != nil {
		// A failed batch has no reference to verify against: outstanding
		// cross-checks resolve as abstentions (the error is the outcome).
		for f := range pb.followers {
			r.applyVoteLocked(pb, f, voteAbstain, check.Digest{})
		}
	} else if len(pb.followers) > 0 {
		pb.leaderSum = check.DigestOf(res.Tensors)
	}
	for idx, sum := range pb.earlyVotes {
		r.followerVoteLocked(pb, idx, sum)
	}
	pb.earlyVotes = nil
	r.completeLocked(pb)
}

// onVote handles a verification-plane frame from a replica: a follower's
// final-output digest (Stage -1), which is its vote, or a best-effort stage
// digest.
func (r *Router) onVote(ev replicaEvent) {
	v := ev.vote
	r.m.fwd[planeDigest].Add(uint64(ev.wireBytes))
	r.mu.Lock()
	defer r.mu.Unlock()
	pb := r.pending[v.ID]
	if pb == nil {
		return
	}
	if v.Stage >= 0 {
		r.onStageDigestLocked(pb, ev.idx, v)
		return
	}
	r.followerVoteLocked(pb, ev.idx, v.Sum)
	r.completeLocked(pb)
}

// followerVoteLocked decides one follower's vote from the digest of its
// outputs, in both forwarding modes: a zero sum abstains, otherwise the vote
// agrees exactly when the sum equals the leader's digest. A digest that
// arrives before the leader's result is parked in earlyVotes until the result
// fixes the reference. Frames from a replica that is not an open follower of
// the batch are ignored. The caller runs completeLocked. Caller holds r.mu.
func (r *Router) followerVoteLocked(pb *pendingBatch, idx int, sum check.Digest) {
	switch {
	case !pb.followers[idx]:
	case sum == check.Digest{}:
		r.applyVoteLocked(pb, idx, voteAbstain, sum)
	case pb.res == nil:
		if pb.earlyVotes == nil {
			pb.earlyVotes = make(map[int]check.Digest)
		}
		pb.earlyVotes[idx] = sum
	case sum == pb.leaderSum:
		r.applyVoteLocked(pb, idx, voteAgree, sum)
	default:
		r.applyVoteLocked(pb, idx, voteDissent, sum)
	}
}

// applyVoteLocked resolves one follower's verdict (voteAgree, voteDissent or
// voteAbstain); sum is the digest it computed, zero when abstaining. Caller
// holds r.mu.
func (r *Router) applyVoteLocked(pb *pendingBatch, idx, verdict int, sum check.Digest) {
	if !pb.followers[idx] {
		return
	}
	delete(pb.followers, idx)
	r.state[idx].checks--
	r.m.votes[verdict].Inc()
	pb.votes = append(pb.votes, transcript.Vote{Replica: r.reps[idx].ID(), Sum: sum, Agree: verdict == voteAgree})
	if verdict == voteDissent {
		pb.dissent = true
		// Lock order is safe: the flight sampler reads its sources without
		// holding its own lock, so r.mu -> flight.mu never inverts.
		r.cfg.Flight.Trigger(telemetry.FlightReasonDissent)
	}
}

// onStageDigestLocked records best-effort per-checkpoint digests: the first
// replica to report a stage owns the reference; a different replica
// reporting a different digest for the same stage is early dissent. The
// final vote remains the correctness backbone. Caller holds r.mu.
func (r *Router) onStageDigestLocked(pb *pendingBatch, idx int, v *wire.Digest) {
	if pb.stageSums == nil {
		pb.stageSums = make(map[int32]stageSum)
	}
	prev, ok := pb.stageSums[v.Stage]
	if !ok {
		// The first-seen digest is the reference this batch's audit leaf
		// carries for the stage; later conflicting reports surface as votes.
		pb.stageSums[v.Stage] = stageSum{idx: idx, sum: check.Digest(v.Sum)}
		return
	}
	if prev.idx != idx && prev.sum != check.Digest(v.Sum) {
		r.m.dissent.Inc()
	}
}

// completeLocked delivers the batch if its gates allow, posts its audit leaf
// once the row is out and every follower has resolved, and reports whether
// the batch is fully resolved. Dissent after an async delivery cannot recall
// the row: it reaches the counters and the leaf only. Caller holds r.mu.
func (r *Router) completeLocked(pb *pendingBatch) bool {
	if r.pending[pb.id] == nil {
		return true // already resolved (failover race)
	}
	if pb.res == nil {
		return false // leader still running
	}
	votesIn := len(pb.followers) == 0
	if !pb.delivered {
		if r.cfg.Sync && !votesIn {
			return false // hold for votes
		}
		res := *pb.res
		if pb.dissent {
			res.Err, res.Tensors = ErrDivergence, nil
		}
		r.deliverLocked(pb, &res)
	}
	if votesIn {
		delete(r.pending, pb.id)
		r.noteDispatch(pb, -1)
		r.recordLocked(pb)
	}
	return votesIn
}

// recordLocked posts a served batch's audit leaf; a failed row earns none.
// The leaf carries the first-seen digest of each checkpoint stage, within
// the leaf format's bound. Caller holds r.mu.
func (r *Router) recordLocked(pb *pendingBatch) {
	if !pb.served || r.cfg.Transcript == nil {
		return
	}
	var cps []transcript.Checkpoint
	for st, s := range pb.stageSums {
		if int(st) >= transcript.MaxLeafCheckpoints {
			continue
		}
		for len(cps) <= int(st) {
			cps = append(cps, transcript.Checkpoint{})
		}
		cps[st].Digest = s.sum
	}
	r.cfg.Transcript.Record(transcript.Batch{
		Trace: pb.trace, ID: pb.id, Inputs: pb.inputs, Outputs: pb.res.Tensors,
		Checkpoints: cps, Votes: pb.votes, Rung: pb.rung, Replica: r.reps[pb.leader].ID(),
	})
}

// deliverLocked enqueues the result row; the delivery goroutine moves it to
// the output stream and releases the batch's slot. deliverq is sized to
// maxInFlight and each slot delivers at most once, so the enqueue never
// blocks. Caller holds r.mu.
func (r *Router) deliverLocked(pb *pendingBatch, res *monitor.BatchResult) {
	pb.delivered = true
	res.ID = pb.id
	now := time.Now()
	res.Latency = now.Sub(pb.born)
	if res.Err == nil {
		pb.served, pb.rung = true, uint8(r.state[pb.leader].worst)
	}
	r.deliverq <- *res
	r.m.routeNs.Observe(res.Latency.Nanoseconds())
	if pb.trace != 0 {
		// The router's root span: placement through delivery. Replica-side
		// spans for the same trace nest inside it once their reports merge.
		r.tracer.Record(telemetry.Span{
			Trace: pb.trace, Batch: pb.id, Name: "route", Stage: -1,
			Start: pb.born.UnixNano(), End: now.UnixNano(),
		})
	}
}

// delivery is the single mover from the internal queue to the consumer
// stream. Consumer backpressure blocks here — holding the batch's slot, so
// Submit stalls — never under r.mu.
func (r *Router) delivery() {
	defer r.wg.Done()
	for {
		select {
		case res := <-r.deliverq:
			select {
			case r.out <- res:
			case <-r.stop:
				// Shutdown: flush what fits, drop the rest (the consumer is
				// going away with us).
				select {
				case r.out <- res:
				default:
				}
			}
			<-r.slots
		case <-r.stop:
			for {
				select {
				case res := <-r.deliverq:
					select {
					case r.out <- res:
					default:
					}
					<-r.slots
				default:
					return
				}
			}
		}
	}
}

// onStatus applies a replica heartbeat. A replica that reports a halted
// stage stops receiving new work; its in-flight batches fail over when their
// results come back failed (the engine errors batches reaching a halted
// stage, so nothing re-executes speculatively).
func (r *Router) onStatus(ev replicaEvent) {
	r.mu.Lock()
	st := &r.state[ev.idx]
	st.ladder = ev.status.Ladder
	st.spares = ev.status.Spares
	worst := int(monitor.LadderFull)
	for _, rung := range st.ladder {
		if rung < worst {
			worst = rung
		}
	}
	demoted := worst < st.worst
	st.worst = worst
	r.mu.Unlock()
	r.m.rung[ev.idx].Set(int64(worst))
	if demoted {
		r.cfg.Flight.Trigger(telemetry.FlightReasonDemotion)
	}
}

// onSpans merges one replica's harvested spans into the router's ring,
// stamped with the reporting replica's identity — the receive side of trace
// federation. Span bytes are accounted on their own counter so observability
// traffic never pollutes the forward-plane cost split.
func (r *Router) onSpans(ev replicaEvent) {
	rep := ev.spans
	r.m.spanReports.Inc()
	r.m.spanBytes.Add(uint64(ev.wireBytes))
	r.m.spansMerged.Add(uint64(len(rep.Spans)))
	for i := range rep.Spans {
		s := rep.Spans[i]
		s.Replica = rep.Replica
		r.tracer.Record(s)
	}
}

// onMetrics stores one replica's federated registry snapshot.
func (r *Router) onMetrics(ev replicaEvent) {
	r.mu.Lock()
	r.repMetrics[ev.idx] = replicaMetricsState{at: time.Now(), series: ev.metrics.Series}
	r.mu.Unlock()
}

// ClusterMetrics returns the latest federated snapshot per replica (replicas
// that never answered a poll are omitted). The backing slices are shared
// with the collector's stored state and must be treated as read-only.
func (r *Router) ClusterMetrics() []ReplicaMetrics {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]ReplicaMetrics, 0, len(r.reps))
	for i, rep := range r.reps {
		st := r.repMetrics[i]
		if st.series == nil {
			continue
		}
		out = append(out, ReplicaMetrics{Replica: rep.ID(), Age: time.Since(st.at), Series: st.series})
	}
	return out
}

// collector drives metrics federation: on each tick it polls every up
// replica's registry over its existing status channel; answers land as
// metrics events. Skips entirely while telemetry is disabled.
func (r *Router) collector(every time.Duration) {
	defer r.wg.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if !telemetry.Enabled() {
				continue
			}
			r.mu.Lock()
			r.pollSeq++
			seq := r.pollSeq
			up := make([]bool, len(r.reps))
			for i := range r.state {
				up[i] = r.state[i].up
			}
			r.mu.Unlock()
			for i, rep := range r.reps {
				if !up[i] {
					continue
				}
				rep.pollMetrics(seq)
				r.m.polls.Inc()
			}
		case <-r.stop:
			return
		}
	}
}

// onDown marks the replica lost and fails its batches over: leader batches
// resubmit to a healthy peer under the same router ID; follower cross-checks
// resolve as abstentions.
func (r *Router) onDown(ev replicaEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := &r.state[ev.idx]
	if !st.up {
		return
	}
	st.up = false
	r.m.up[ev.idx].Set(0)
	r.cfg.Flight.Trigger(telemetry.FlightReasonReplicaDown)
	for _, pb := range r.pending {
		if pb.followers[ev.idx] {
			r.applyVoteLocked(pb, ev.idx, voteAbstain, check.Digest{})
			r.completeLocked(pb)
		}
		r.failoverLocked(pb, ev.idx, ev.down)
	}
}

// failover re-places one batch away from a failed leader (see
// failoverLocked).
func (r *Router) failover(id uint64, from int, cause error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if pb := r.pending[id]; pb != nil {
		r.failoverLocked(pb, from, cause)
	}
}

// failoverLocked re-places the batch away from its failed leader from and
// resubmits it under its original router ID, so the serving tier's demux sees
// exactly one row per batch no matter how many replicas touched it. A no-op
// when from no longer leads the batch or the leader already answered. Caller
// holds r.mu.
func (r *Router) failoverLocked(pb *pendingBatch, from int, cause error) {
	if pb.leader != from || pb.res != nil {
		return // resolved or already re-placed by a concurrent path
	}
	if pb.retries >= maxRetries {
		r.resolveFailedLocked(pb, fmt.Errorf("cluster: batch %d exhausted failover retries: %w", pb.id, cause))
		return
	}
	leader, _, err := r.place(from)
	if err != nil {
		r.resolveFailedLocked(pb, err)
		return
	}
	pb.retries++
	// Re-home the load accounting: the old leader's share moves to the new.
	r.state[pb.leader].inflight--
	r.m.inflight[pb.leader].Set(int64(r.state[pb.leader].inflight))
	pb.leader = leader
	r.state[leader].inflight++
	r.m.inflight[leader].Set(int64(r.state[leader].inflight))
	// A follower on the failed replica abstains, and so does a follower
	// promoted to leader: it would otherwise vote on its own result.
	r.applyVoteLocked(pb, from, voteAbstain, check.Digest{})
	r.applyVoteLocked(pb, leader, voteAbstain, check.Digest{})
	r.m.failovers.Inc()
	r.cfg.Flight.Trigger(telemetry.FlightReasonFailover)
	if r.closed {
		return // Close drains the batch with ErrRouterStopped
	}
	// The resubmission keeps the original trace ID, so the new leader's spans
	// land in the same tree as the failed attempt's. Like dispatch it runs on
	// its own goroutine: failover fires from the event loop (down events,
	// failed leader results), and the loop must never block on a socket
	// write — it is the only drain for the events channel every conn reader
	// posts into.
	id, inputs, trace := pb.id, pb.inputs, pb.trace
	r.dispatchWG.Add(1)
	go func() {
		defer r.dispatchWG.Done()
		n, err := r.reps[leader].submit(id, trace, nil, inputs, false)
		r.m.fwd[planeInput].Add(uint64(n))
		if err != nil {
			r.failover(id, leader, err)
		}
	}()
}

// resolveFailedLocked fails the batch outright: no healthy peer or retries
// exhausted. Caller holds r.mu.
func (r *Router) resolveFailedLocked(pb *pendingBatch, err error) {
	if !pb.delivered {
		r.deliverLocked(pb, &monitor.BatchResult{Err: err})
	}
	delete(r.pending, pb.id)
	r.noteDispatch(pb, -1)
}

// sweeper resolves batches whose follower votes never arrived: after
// timeout past the leader result, stragglers count as abstentions.
func (r *Router) sweeper(timeout time.Duration) {
	defer r.wg.Done()
	t := time.NewTicker(timeout / 2)
	defer t.Stop()
	for {
		select {
		case now := <-t.C:
			r.mu.Lock()
			var expired []*pendingBatch
			for _, pb := range r.pending {
				if pb.res != nil && len(pb.followers) > 0 && now.Sub(pb.resAt) > timeout {
					expired = append(expired, pb)
				}
			}
			for _, pb := range expired {
				for f := range pb.followers {
					r.applyVoteLocked(pb, f, voteAbstain, check.Digest{})
				}
				r.completeLocked(pb)
			}
			r.mu.Unlock()
		case <-r.stop:
			return
		}
	}
}
