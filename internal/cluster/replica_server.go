package cluster

import (
	"fmt"
	"sync"
	"time"

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
	// HoldTTL bounds how long a cross-check digest (or an early announce)
	// waits for its counterpart before the batch is abandoned replica-side.
	// Zero means 30 seconds.
	HoldTTL time.Duration
	// Metrics is the registry served to the router's metrics-federation
	// polls; nil uses telemetry.Default (the daemon's process registry).
	Metrics *telemetry.Registry
	// MaxSpans bounds the spans harvested and shipped per batch in a
	// SpanReport. Zero means 64.
	MaxSpans int
}

// spanScanWindow bounds how far back in the engine's span ring a per-batch
// harvest scans. A just-delivered batch's spans sit at the young end of the
// ring, within (in-flight depth x spans per batch) entries; 1024 covers that
// comfortably while keeping the per-batch cost independent of -trace-ring.
const spanScanWindow = 1024

// ReplicaServer runs one replica's end of the router protocol over a
// securechan connection: it registers with a hello, executes Batch frames as
// the batch leader (full result back) and Verify frames as a follower
// (digest vote back), streams health on ladder transitions, and applies
// router-scoped controller knobs. The engine is owned by the caller and must
// be dedicated to this server while it runs.
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
	// must not block) from the connection; full buffer drops the frame —
	// stage digests are a best-effort early-dissent signal, the final vote is
	// the correctness backbone.
	stageDigests chan wire.Digest

	mu        sync.Mutex
	pend      map[uint64]repSub              // engine batch ID -> router batch
	orphans   map[uint64]monitor.BatchResult // completed before Submit registered
	held      map[uint64]heldDigest          // follower digest awaiting announce (router ID key)
	announces map[uint64]heldDigest          // announce awaiting follower digest (router ID key)
}

type repSub struct {
	rid    uint64
	trace  uint64 // router-minted federation trace ID (zero: tracing off)
	verify bool
}

type heldDigest struct {
	sum  check.Digest
	err  bool // execution failed: vote must abstain
	born time.Time
}

// NewReplicaServer builds the server; Run drives it. Split from ServeReplica
// so the daemon can wire the engine's DigestSink to StageDigestSink before
// starting the protocol.
func NewReplicaServer(conn securechan.Conn, eng *monitor.Engine, opts ReplicaServerOptions) *ReplicaServer {
	if opts.HoldTTL <= 0 {
		opts.HoldTTL = 30 * time.Second
	}
	if opts.Spares == nil {
		opts.Spares = func() int { return 0 }
	}
	if opts.Metrics == nil {
		opts.Metrics = telemetry.Default
	}
	if opts.MaxSpans <= 0 {
		opts.MaxSpans = 64
	}
	return &ReplicaServer{
		conn:         conn,
		eng:          eng,
		opts:         opts,
		stop:         make(chan struct{}),
		stageDigests: make(chan wire.Digest, 256),
		pend:         make(map[uint64]repSub),
		orphans:      make(map[uint64]monitor.BatchResult),
		held:         make(map[uint64]heldDigest),
		announces:    make(map[uint64]heldDigest),
	}
}

// ServeReplica serves the engine to a cluster router on conn until the
// connection fails or the router sends Shutdown.
func ServeReplica(conn securechan.Conn, eng *monitor.Engine, opts ReplicaServerOptions) error {
	return NewReplicaServer(conn, eng, opts).Run()
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
	s.wg.Add(3)
	go s.pumpOutputs()
	go s.pumpStatus()
	go s.sweep()
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
		case *wire.Digest:
			if !v.Vote && v.Stage < 0 {
				s.onAnnounce(v)
			} // stage-digest frames are router-bound only; ignore otherwise
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

// submit feeds one router batch into the engine, registering the ID
// translation. Orphan parking resolves the race against fast completions
// (see Local.submit).
func (s *ReplicaServer) submit(rid, trace uint64, tensors map[string]*tensor.Tensor, verify bool) {
	eid, err := s.eng.SubmitTraced(tensors, trace)
	if err != nil {
		if verify {
			// Abstain: the follower cannot execute, so it has no verdict.
			s.send(&wire.Digest{ID: rid, Stage: -1, Vote: true})
			return
		}
		// As in deliver: the halted ladder goes ahead of the rejection, so
		// the router fails the batch over instead of delivering the error.
		s.sendStatus(&wire.Result{ID: rid, Err: err.Error()})
		return
	}
	sub := repSub{rid: rid, trace: trace, verify: verify}
	s.mu.Lock()
	br, raced := s.orphans[eid]
	if raced {
		delete(s.orphans, eid)
	} else {
		s.pend[eid] = sub
	}
	s.mu.Unlock()
	if raced {
		s.deliver(br, sub)
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
			s.mu.Lock()
			sub, ok := s.pend[br.ID]
			if ok {
				delete(s.pend, br.ID)
			} else {
				s.orphans[br.ID] = br
			}
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
// follower batches resolve into a digest vote — immediately when the
// leader's announce already arrived, otherwise the digest is held for it.
func (s *ReplicaServer) deliver(br monitor.BatchResult, sub repSub) {
	if !sub.verify {
		res := &wire.Result{ID: sub.rid, Tensors: br.Tensors}
		if br.Err != nil {
			res.Err = br.Err.Error()
			res.Tensors = nil
			// Refresh health ahead of the error on the same ordered stream,
			// so the router's failover decision sees the demotion that
			// caused it rather than a stale ladder.
			s.sendStatus(res)
		} else {
			s.send(res)
		}
		s.reportSpans(sub)
		return
	}
	h := heldDigest{err: br.Err != nil, born: time.Now()}
	if br.Err == nil {
		h.sum = check.DigestOf(br.Tensors)
	}
	s.mu.Lock()
	a, ok := s.announces[sub.rid]
	if ok {
		delete(s.announces, sub.rid)
	} else {
		s.held[sub.rid] = h
	}
	s.mu.Unlock()
	if ok {
		s.vote(sub.rid, h, a.sum)
	}
	// Follower spans ship at engine completion; the vote may still be held
	// for the leader's announce, but the spans exist now.
	s.reportSpans(sub)
}

// reportSpans harvests this batch's spans from the engine's ring and ships
// them to the router right behind the result/vote on the same ordered
// connection — the sending half of trace federation. The engine records its
// root "batch" span before the result reaches the output channel, so the
// harvest here sees the complete set. Zero-trace batches (tracing off) skip
// everything.
func (s *ReplicaServer) reportSpans(sub repSub) {
	if sub.trace == 0 || !telemetry.Enabled() {
		return
	}
	spans := s.eng.Tracer().SpansForRecent(sub.trace, spanScanWindow, s.opts.MaxSpans)
	if len(spans) == 0 {
		return
	}
	s.send(&wire.SpanReport{ID: sub.rid, Replica: s.opts.Hello.ID, Spans: spans})
}

// onAnnounce resolves the leader's final digest against the held follower
// digest, or parks it until the local execution completes.
func (s *ReplicaServer) onAnnounce(d *wire.Digest) {
	s.mu.Lock()
	h, ok := s.held[d.ID]
	if ok {
		delete(s.held, d.ID)
	} else {
		s.announces[d.ID] = heldDigest{sum: check.Digest(d.Sum), born: time.Now()}
	}
	s.mu.Unlock()
	if ok {
		s.vote(d.ID, h, check.Digest(d.Sum))
	}
}

// vote sends the follower verdict: zero Sum abstains (execution failed),
// otherwise Agree reports digest equality and Sum carries what this replica
// actually computed so a dissent is diagnosable router-side.
func (s *ReplicaServer) vote(rid uint64, h heldDigest, leader check.Digest) {
	v := &wire.Digest{ID: rid, Stage: -1, Vote: true}
	if !h.err {
		v.Sum = h.sum
		v.Agree = h.sum == leader
	}
	s.send(v)
}

// StageDigestSink adapts the engine's per-checkpoint digest tap
// (monitor.EngineConfig.DigestSink) to the router's verification plane.
// Never blocks: frames drop when the channel is saturated.
func (s *ReplicaServer) StageDigestSink(batchID uint64, stage int, digest check.Digest) {
	s.mu.Lock()
	sub, ok := s.pend[batchID]
	s.mu.Unlock()
	if !ok {
		return // not a router batch (or already completed)
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

// sweep abandons held digests and announces whose counterpart never arrived
// (router failed the batch over, or the announce was lost with its leader).
func (s *ReplicaServer) sweep() {
	defer s.wg.Done()
	t := time.NewTicker(s.opts.HoldTTL / 2)
	defer t.Stop()
	for {
		select {
		case now := <-t.C:
			s.mu.Lock()
			for id, h := range s.held {
				if now.Sub(h.born) > s.opts.HoldTTL {
					delete(s.held, id)
				}
			}
			for id, a := range s.announces {
				if now.Sub(a.born) > s.opts.HoldTTL {
					delete(s.announces, id)
				}
			}
			s.mu.Unlock()
		case <-s.stop:
			return
		}
	}
}
