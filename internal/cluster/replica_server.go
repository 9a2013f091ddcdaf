package cluster

import (
	"fmt"
	"sync"

	"repro/internal/check"
	"repro/internal/monitor"
	"repro/internal/securechan"
	"repro/internal/telemetry"
	"repro/internal/tensor"
	"repro/internal/wire"
)

// ReplicaServerOptions configures the replica side of the router protocol.
type ReplicaServerOptions struct {
	// Hello advertises the model interface; ID must be set. Stages, Variants
	// (if zero) and InflightWindow are filled from the engine.
	Hello wire.ReplicaHello
	// Spares reports the local spare pool size for status heartbeats; nil
	// reports zero.
	Spares func() int
	// Metrics is the registry served to the router's metrics-federation
	// polls; nil uses telemetry.Default (the daemon's process registry).
	Metrics *telemetry.Registry
}

const (
	// maxSpans bounds the spans harvested and shipped per batch in a
	// SpanReport.
	maxSpans = 64
	// spanScanWindow bounds how far back in the engine's span ring a
	// per-batch harvest scans. A just-delivered batch's spans sit at the
	// young end of the ring, within (in-flight depth x spans per batch)
	// entries; 1024 covers that comfortably while keeping the per-batch cost
	// independent of -trace-ring.
	spanScanWindow = 1024
)

// ReplicaServer runs one replica's end of the router protocol over a
// securechan connection: it registers with a hello, executes Batch frames as
// the batch leader (full result back) and Verify frames as a follower (the
// digest of its outputs back, which the router turns into its vote), streams
// health on ladder transitions, and applies router-scoped controller knobs.
// The engine is owned by the caller and must be dedicated to this server
// while it runs.
type ReplicaServer struct {
	conn securechan.Conn
	eng  *monitor.Engine
	opts ReplicaServerOptions

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
	// statusMu makes each heartbeat's read and send atomic (see sendStatus).
	statusMu sync.Mutex

	// stageDigests decouples the engine's DigestSink (stage worker context,
	// must not block) from the connection; a full buffer drops the frame —
	// stage digests are best-effort audit-leaf checkpoints, the final vote is
	// the correctness backbone.
	stageDigests chan wire.Digest

	mu   sync.Mutex
	pend map[uint64]repSub // engine batch ID -> router batch
}

type repSub struct {
	rid    uint64
	trace  uint64 // router-minted federation trace ID (zero: untraced)
	verify bool
}

// NewReplicaServer builds the server; Run drives it. The two are split so
// the daemon can point the engine's DigestSink at StageDigestSink before
// starting the protocol.
func NewReplicaServer(conn securechan.Conn, eng *monitor.Engine, opts ReplicaServerOptions) *ReplicaServer {
	if opts.Spares == nil {
		opts.Spares = func() int { return 0 }
	}
	if opts.Metrics == nil {
		opts.Metrics = telemetry.Default
	}
	return &ReplicaServer{
		conn:         conn,
		eng:          eng,
		opts:         opts,
		stop:         make(chan struct{}),
		stageDigests: make(chan wire.Digest, 256),
		pend:         make(map[uint64]repSub),
	}
}

// Run sends the hello and drives the protocol until the connection fails or
// the router sends Shutdown. The engine keeps running after Run returns.
func (s *ReplicaServer) Run() error {
	hello := s.opts.Hello
	ladder := s.eng.Ladder()
	hello.Stages = len(ladder)
	hello.InflightWindow = s.eng.InflightWindow()
	if err := wire.Send(s.conn, &hello); err != nil {
		return fmt.Errorf("cluster: replica hello: %w", err)
	}
	s.wg.Add(2)
	go s.pumpOutputs()
	go s.pumpStatus()
	err := s.readLoop()
	s.shutdown()
	s.wg.Wait()
	return err
}

func (s *ReplicaServer) shutdown() { s.stopOnce.Do(func() { close(s.stop) }) }

// send transmits one frame; securechan serializes concurrent senders. A send
// failure stops the server (the read loop will fail on the dead connection).
func (s *ReplicaServer) send(m wire.Msg) {
	if err := wire.Send(s.conn, m); err != nil {
		s.shutdown()
	}
}

func (s *ReplicaServer) readLoop() error {
	for {
		m, err := wire.Recv(s.conn)
		if err != nil {
			select {
			case <-s.stop:
				return nil
			default:
				return err
			}
		}
		switch v := m.(type) {
		case *wire.Batch:
			s.submit(v.ID, v.Trace, v.Tensors, false)
		case *wire.Verify:
			s.submit(v.ID, v.Trace, v.Tensors, true)
		case *wire.ReplicaTune:
			s.eng.SetInflightWindow(v.InflightWindow)
		case *wire.MetricsPoll:
			// Metrics federation: answer with the registry snapshot on the
			// same channel — replicas expose no HTTP surface to the router.
			s.send(&wire.MetricsReport{Seq: v.Seq, Series: s.opts.Metrics.Snapshot()})
		case *wire.Shutdown:
			s.shutdown()
			return nil
		}
	}
}

// submit feeds one router batch into the engine. The ID translation is
// registered under a reserved engine ID before the engine sees the batch, so
// no completion can beat it.
func (s *ReplicaServer) submit(rid, trace uint64, tensors map[string]*tensor.Tensor, verify bool) {
	eid := monitor.NewBatchID()
	s.mu.Lock()
	s.pend[eid] = repSub{rid: rid, trace: trace, verify: verify}
	s.mu.Unlock()
	if err := s.eng.SubmitID(eid, tensors, trace); err != nil {
		s.mu.Lock()
		delete(s.pend, eid)
		s.mu.Unlock()
		if verify {
			// Abstain (zero sum): the follower cannot execute the batch.
			s.send(&wire.Digest{ID: rid, Stage: -1})
			return
		}
		// As in deliver: the halted ladder goes ahead of the rejection, so
		// the router fails the batch over instead of delivering the error.
		s.sendStatus(&wire.Result{ID: rid, Err: err.Error()})
	}
}

func (s *ReplicaServer) pumpOutputs() {
	defer s.wg.Done()
	for {
		select {
		case br, ok := <-s.eng.Outputs():
			if !ok {
				s.shutdown()
				return
			}
			// An unregistered ID is a previous session's batch completing
			// after its router left: nobody is waiting for it.
			s.mu.Lock()
			sub, ok := s.pend[br.ID]
			delete(s.pend, br.ID)
			s.mu.Unlock()
			if ok {
				s.deliver(br, sub)
			}
		case d := <-s.stageDigests:
			s.send(&d)
		case <-s.stop:
			return
		}
	}
}

// deliver answers one completed batch: leader batches return the full result,
// follower batches the digest of their outputs (zero when execution failed:
// an abstention), which the router compares with the leader's.
func (s *ReplicaServer) deliver(br monitor.BatchResult, sub repSub) {
	switch {
	case sub.verify:
		v := &wire.Digest{ID: sub.rid, Stage: -1}
		if br.Err == nil {
			v.Sum = check.DigestOf(br.Tensors)
		}
		s.send(v)
	case br.Err != nil:
		// Refresh health ahead of the error on the same ordered stream, so
		// the router's failover decision sees the demotion that caused it
		// rather than a stale ladder.
		s.sendStatus(&wire.Result{ID: sub.rid, Err: br.Err.Error()})
	default:
		s.send(&wire.Result{ID: sub.rid, Tensors: br.Tensors})
	}
	s.reportSpans(sub)
}

// reportSpans harvests this batch's spans from the engine's ring and ships
// them to the router right behind the result/vote on the same ordered
// connection — the sending half of trace federation. The engine records its
// root "batch" span before the result reaches the output channel, so the
// harvest here sees the complete set. Untraced batches skip everything.
func (s *ReplicaServer) reportSpans(sub repSub) {
	if sub.trace == 0 {
		return
	}
	spans := s.eng.Tracer().SpansForRecent(sub.trace, spanScanWindow, maxSpans)
	if len(spans) == 0 {
		return
	}
	s.send(&wire.SpanReport{ID: sub.rid, Replica: s.opts.Hello.ID, Spans: spans})
}

// StageDigestSink adapts the engine's per-checkpoint digest tap
// (monitor.EngineConfig.DigestSink) to the router's verification plane.
// Only a leader's batches stream them: the router keeps the serving
// leader's checkpoints for the audit leaf, and a follower votes with its
// final digest alone. Never blocks: frames drop when the channel is
// saturated.
func (s *ReplicaServer) StageDigestSink(batchID uint64, stage int, digest check.Digest) {
	s.mu.Lock()
	sub, ok := s.pend[batchID]
	s.mu.Unlock()
	if !ok || sub.verify {
		return // not a router batch, already completed, or a cross-check
	}
	d := wire.Digest{ID: sub.rid, Stage: int32(stage), Sum: digest}
	select {
	case s.stageDigests <- d:
	default:
	}
}

// sendStatus sends a health heartbeat read now, then the frame then when
// non-nil. Reading and sending under statusMu means a heartbeat read before
// an engine halt can never land between the halted heartbeat and the failed
// result it explains.
func (s *ReplicaServer) sendStatus(then wire.Msg) {
	s.statusMu.Lock()
	defer s.statusMu.Unlock()
	s.send(replicaStatus(s.eng, s.opts.Spares()))
	if then != nil {
		s.send(then)
	}
}

// replicaStatus is the health heartbeat for eng.
func replicaStatus(eng *monitor.Engine, spares int) *wire.ReplicaStatus {
	ladder := eng.Ladder()
	st := &wire.ReplicaStatus{Ladder: make([]int, len(ladder)), Spares: spares}
	for i, r := range ladder {
		st.Ladder[i] = int(r)
	}
	return st
}

func (s *ReplicaServer) pumpStatus() {
	defer s.wg.Done()
	sub := s.eng.EventBus().Subscribe(64)
	defer sub.Close()
	s.sendStatus(nil)
	for {
		select {
		case ev := <-sub.C:
			switch ev.Kind {
			case monitor.EventLadderDemoted, monitor.EventLadderPromoted,
				monitor.EventVariantDown, monitor.EventVariantDropped,
				monitor.EventVariantTimeout, monitor.EventVariantReplaced,
				monitor.EventSpareProvisioned:
				s.sendStatus(nil)
			}
		case <-s.stop:
			return
		}
	}
}
