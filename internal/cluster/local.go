package cluster

import (
	"sync"

	"repro/internal/check"
	"repro/internal/monitor"
	"repro/internal/telemetry"
	"repro/internal/tensor"
	"repro/internal/wire"
)

// Local wraps an in-process engine as a cluster replica: single-node
// multi-replica deployments (one engine per NUMA partition), tests and
// benches. The verification plane needs no wire hops — a follower execution
// hands the router its raw digest and the router compares it against the
// leader's directly.
type Local struct {
	id      string
	eng     *monitor.Engine
	hello   wire.ReplicaHello
	spares  func() int
	metrics *telemetry.Registry

	idx    int
	events chan<- replicaEvent
	// routerTracer is the router's span ring (set at attach): when the
	// engine records into a different ring, this replica's spans must ship
	// over as span events like a remote's would; when they share one ring
	// (both on DefaultTracer, the single-process default) the spans are
	// already co-resident and re-shipping would duplicate them.
	routerTracer *telemetry.Tracer
	stop         chan struct{}
	wg           sync.WaitGroup
	// statusMu makes each heartbeat's read and post atomic (see postStatus).
	statusMu sync.Mutex

	mu      sync.Mutex
	subs    map[uint64]localSub            // engine batch ID -> router submission
	orphans map[uint64]monitor.BatchResult // completed before submit registered
}

type localSub struct {
	rid    uint64
	trace  uint64 // router-minted federation trace ID (zero: tracing off)
	verify bool
}

// LocalOptions configures NewLocal beyond the engine itself.
type LocalOptions struct {
	// Hello advertises the model interface (serve-door validation). ID,
	// Stages, Variants and InflightWindow are filled from the engine.
	Hello wire.ReplicaHello
	// Spares reports the replica's spare pool size for status heartbeats;
	// nil reports zero.
	Spares func() int
	// Metrics answers the router's metrics-federation polls (typically the
	// engine's own registry); nil reports nothing.
	Metrics *telemetry.Registry
}

// NewLocal builds an in-process replica over a started engine.
func NewLocal(id string, eng *monitor.Engine, opts LocalOptions) *Local {
	h := opts.Hello
	h.ID = id
	h.Stages = len(eng.Ladder())
	sp := opts.Spares
	if sp == nil {
		sp = func() int { return 0 }
	}
	return &Local{
		id:      id,
		eng:     eng,
		hello:   h,
		spares:  sp,
		metrics: opts.Metrics,
		stop:    make(chan struct{}),
		subs:    make(map[uint64]localSub),
		orphans: make(map[uint64]monitor.BatchResult),
	}
}

func (l *Local) ID() string               { return l.id }
func (l *Local) Hello() wire.ReplicaHello { return l.hello }
func (l *Local) InflightWindow() int      { return l.eng.InflightWindow() }
func (l *Local) SetInflightWindow(n int)  { l.eng.SetInflightWindow(n) }

// Close detaches the replica from the router. The engine is owned by the
// caller and keeps running.
func (l *Local) Close() error {
	select {
	case <-l.stop:
	default:
		close(l.stop)
	}
	l.wg.Wait()
	return nil
}

func (l *Local) attach(idx int, events chan<- replicaEvent, tracer *telemetry.Tracer) {
	l.idx, l.events, l.routerTracer = idx, events, tracer
	l.wg.Add(2)
	go l.pumpOutputs()
	go l.pumpStatus()
}

func (l *Local) post(ev replicaEvent) {
	ev.idx = l.idx
	select {
	case l.events <- ev:
	case <-l.stop:
	}
}

// postStatus posts a health heartbeat read now, then res when non-nil.
// Reading and posting under statusMu means a heartbeat read before an engine
// halt can never land between the halted heartbeat and the failed result it
// explains.
func (l *Local) postStatus(res *monitor.BatchResult) {
	l.statusMu.Lock()
	defer l.statusMu.Unlock()
	l.post(replicaEvent{status: replicaStatus(l.eng, l.spares())})
	if res != nil {
		l.post(replicaEvent{res: res})
	}
}

// pumpOutputs translates engine completions into router events: primary
// batches become results, verify batches become digest votes. An engine
// whose output channel closes (stopped or halted fatally) reports the
// replica down so the router fails its in-flight batches over.
func (l *Local) pumpOutputs() {
	defer l.wg.Done()
	for {
		select {
		case br, ok := <-l.eng.Outputs():
			if !ok {
				l.post(replicaEvent{down: monitor.ErrEngineStopped})
				return
			}
			l.mu.Lock()
			sub, ok := l.subs[br.ID]
			if ok {
				delete(l.subs, br.ID)
			} else {
				// Completed before submit registered the mapping: park it;
				// submit delivers on its way out. Requires the engine to be
				// dedicated to this replica (every batch is ours).
				l.orphans[br.ID] = br
			}
			l.mu.Unlock()
			if ok {
				l.deliver(br, sub)
			}
		case <-l.stop:
			return
		}
	}
}

// pumpStatus pushes a health heartbeat at attach and after every
// ladder-relevant engine event.
func (l *Local) pumpStatus() {
	defer l.wg.Done()
	sub := l.eng.EventBus().Subscribe(64)
	defer sub.Close()
	l.postStatus(nil)
	for {
		select {
		case ev := <-sub.C:
			switch ev.Kind {
			case monitor.EventLadderDemoted, monitor.EventLadderPromoted,
				monitor.EventVariantDown, monitor.EventVariantDropped,
				monitor.EventVariantTimeout, monitor.EventVariantReplaced,
				monitor.EventSpareProvisioned:
				l.postStatus(nil)
			}
		case <-l.stop:
			return
		}
	}
}

// deliver translates one engine completion into a router event: results for
// primary batches, digest votes for cross-check batches.
func (l *Local) deliver(br monitor.BatchResult, sub localSub) {
	if !sub.verify {
		br.ID = sub.rid
		if br.Err != nil {
			// Refresh health ahead of the error so the router's failover
			// decision sees the demotion that caused it, not a stale ladder.
			l.postStatus(&br)
		} else {
			l.post(replicaEvent{res: &br})
		}
		l.reportSpans(sub)
		return
	}
	defer l.reportSpans(sub)
	v := &wire.Digest{ID: sub.rid, Stage: -1, Vote: true}
	if br.Err == nil {
		v.Sum = check.DigestOf(br.Tensors)
	} // an erroring follower abstains: zero digest
	l.post(replicaEvent{vote: v, localVote: true})
}

// reportSpans is the in-process half of trace federation: only needed when
// the engine records into its own ring (NUMA-partitioned deployments give
// each engine a private tracer) — with a shared ring the router already
// holds these spans and shipping them again would double-count.
func (l *Local) reportSpans(sub localSub) {
	if sub.trace == 0 || !telemetry.Enabled() {
		return
	}
	tr := l.eng.Tracer()
	if tr == l.routerTracer {
		return
	}
	spans := tr.SpansForRecent(sub.trace, spanScanWindow, 64)
	if len(spans) == 0 {
		return
	}
	l.post(replicaEvent{spans: &wire.SpanReport{ID: sub.rid, Replica: l.id, Spans: spans}})
}

func (l *Local) submit(rid, trace uint64, _ []byte, inputs map[string]*tensor.Tensor, verify bool) (int, error) {
	// The engine ID is unknown until Submit returns, so a fast completion can
	// beat the mapping into l.subs: the pump parks such results in l.orphans
	// and the registration below picks them up. Holding l.mu across Submit
	// instead would deadlock — Submit blocks on engine capacity, which frees
	// only when the pump (also needing l.mu) drains Outputs.
	eid, err := l.eng.SubmitTraced(inputs, trace)
	if err != nil {
		return 0, err
	}
	sub := localSub{rid: rid, trace: trace, verify: verify}
	l.mu.Lock()
	br, raced := l.orphans[eid]
	if raced {
		delete(l.orphans, eid)
	} else {
		l.subs[eid] = sub
	}
	l.mu.Unlock()
	if raced {
		l.deliver(br, sub)
	}
	return 0, nil
}

// announce is a no-op for in-process replicas: their votes carry the raw
// digest and the router compares against the leader's without a wire hop.
func (l *Local) announce([]byte, *wire.Digest) (int, error) { return 0, nil }

// pollMetrics answers the router's federation poll synchronously from the
// configured registry; replicas without one report nothing.
func (l *Local) pollMetrics(seq uint64) {
	if l.metrics == nil {
		return
	}
	l.post(replicaEvent{metrics: &wire.MetricsReport{Seq: seq, Series: l.metrics.Snapshot()}})
}
