package monitor

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/check"
	"repro/internal/telemetry"
	"repro/internal/tensor"
	"repro/internal/transcript"
)

// StageSpec wires one pipeline stage: its checkpoint interface and the bound
// variant handles serving it.
type StageSpec struct {
	// Inputs and Outputs are the boundary tensor names of the partition.
	Inputs  []string
	Outputs []string
	// Handles are the variants executing this partition. One handle means
	// fast path; more activate MVX slow path.
	Handles []*Handle
}

// EngineConfig assembles an execution engine.
type EngineConfig struct {
	// GraphInputs and GraphOutputs name the model-level interface.
	GraphInputs  []string
	GraphOutputs []string
	// Stages in pipeline (topological) order.
	Stages []StageSpec
	// Policy is the checkpoint consistency policy.
	Policy check.Policy
	// Vote is the final voting strategy; zero means unanimous.
	Vote check.Strategy
	// Async enables asynchronous cross-validation (forward on majority
	// quorum, validate stragglers retroactively).
	Async bool
	// Response is the divergence reaction; zero means Halt.
	Response ResponseMode
	// MaxInFlight bounds concurrently processed batches (pipeline depth);
	// zero means 2×stages.
	MaxInFlight int
	// InflightWindow is the per-stage credit budget: the maximum number of
	// outstanding (dispatched, unresolved) checkpoint gathers a stage may
	// hold before further batches queue at that stage. Deep pipelines keep
	// every variant busy while per-stage buffering — and therefore straggler
	// exposure on async forwarding — stays bounded. Zero disables the window
	// (only the global MaxInFlight limit applies).
	InflightWindow int
	// StageTimeout bounds how long a checkpoint waits for stragglers. When a
	// variant has not reported StageTimeout after its batch was dispatched,
	// it is declared dead (EventVariantTimeout) and the gather proceeds with
	// the survivors — a hung variant can no longer stall its stage forever.
	// Zero disables the deadline.
	StageTimeout time.Duration
	// Replace, when set, provides hot replacement for dead variant slots
	// (§2.4 recover): the engine calls it off the checkpoint path whenever a
	// slot dies, and installs the returned handle — already attested and
	// bound by the caller — into the slot at the next checkpoint boundary.
	// The monitor wires this to its spare-Assignment pool under the Recover
	// response mode.
	Replace ReplaceFunc
	// DigestSink, when set, receives the canonical digest of every forwarded
	// checkpoint (stage worker context, so implementations must not block):
	// the per-checkpoint fingerprints the cluster tier streams between
	// replicas instead of tensors. Nil (the default) skips digest
	// computation entirely — single-node engines pay nothing for it.
	DigestSink func(batchID uint64, stage int, digest check.Digest)
	// Transcript, when set, receives one finished batch per clean delivery:
	// trace, inputs, every stage's forwarded checkpoint (by the digest the
	// DigestSink already took, else by reference to its tensors), outputs
	// and the worst ladder rung. The router goroutine posts it in one
	// non-blocking send, and the recorder's worker does all hashing.
	Transcript *transcript.Recorder
	// Metrics receives the engine's telemetry series; nil uses
	// telemetry.Default. Registration happens once at construction — the hot
	// path only ever touches pre-resolved atomic handles.
	Metrics *telemetry.Registry
	// Tracer receives the engine's batch spans; nil uses
	// telemetry.DefaultTracer.
	Tracer *telemetry.Tracer
}

// ReplaceFunc obtains a bound replacement handle for a dead variant slot.
// sinceBatch is the last batch dispatched at the stage before the death; the
// replacement joins at the next checkpoint (it will only ever observe batch
// IDs greater than sinceBatch).
type ReplaceFunc func(stage, slot int, deadID string, sinceBatch uint64) (*Handle, error)

// BatchResult is the engine's per-batch outcome.
type BatchResult struct {
	ID      uint64
	Tensors map[string]*tensor.Tensor
	Err     error
	// Latency is submission-to-completion time.
	Latency time.Duration
}

// EventKind classifies engine events.
type EventKind int

// Event kinds.
const (
	EventDivergence       EventKind = iota + 1 // checkpoint vote failed
	EventLateDissent                           // async straggler disagreed after forwarding
	EventVariantDown                           // variant connection lost
	EventVariantDropped                        // variant excluded by response policy
	EventVariantTimeout                        // variant missed the stage deadline
	EventVariantReplaced                       // spare bound into a dead slot
	EventReplaceFailed                         // recovery could not obtain a replacement
	EventLadderDemoted                         // stage degraded a ladder rung
	EventLadderPromoted                        // stage recovered a ladder rung
	EventSpareProvisioned                      // spare pool grew by one pre-attested TEE
	EventFlightIncident                        // flight recorder froze a before/after window

	// eventKindEnd is one past the last defined kind. The severity/string
	// exhaustiveness test walks [1, eventKindEnd) — add new kinds above this
	// line and give them a String() case and a Severity() class, or that test
	// fails.
	eventKindEnd
)

func (k EventKind) String() string {
	switch k {
	case EventDivergence:
		return "divergence"
	case EventLateDissent:
		return "late-dissent"
	case EventVariantDown:
		return "variant-down"
	case EventVariantDropped:
		return "variant-dropped"
	case EventVariantTimeout:
		return "variant-timeout"
	case EventVariantReplaced:
		return "variant-replaced"
	case EventReplaceFailed:
		return "replace-failed"
	case EventLadderDemoted:
		return "ladder-demoted"
	case EventLadderPromoted:
		return "ladder-promoted"
	case EventSpareProvisioned:
		return "spare-provisioned"
	case EventFlightIncident:
		return "flight-incident"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Severity classifies the kind for operator-facing streams: divergence
// signals bear on the security argument itself; departures, timeouts and
// demotions are degraded-but-operating; recoveries are routine lifecycle.
func (k EventKind) Severity() telemetry.Severity {
	switch k {
	case EventDivergence, EventLateDissent:
		return telemetry.SevSecurity
	case EventVariantDown, EventVariantDropped, EventVariantTimeout,
		EventReplaceFailed, EventLadderDemoted, EventFlightIncident:
		return telemetry.SevWarn
	case EventVariantReplaced, EventLadderPromoted, EventSpareProvisioned:
		return telemetry.SevInfo
	default:
		return 0
	}
}

// LadderRung is a stage's position on the degradation ladder: the engine
// demotes a stage as variants die and promotes it back when replacements
// arrive, recording an event at every transition. Higher rungs are healthier.
type LadderRung int

// Ladder rungs, worst to best.
const (
	// LadderHalted: no live variants; batches reaching the stage fail.
	LadderHalted LadderRung = iota
	// LadderSingle: one survivor of a multi-variant stage serves on the fast
	// path — results are unverified (report-only territory).
	LadderSingle
	// LadderQuorum: some variants lost but more than one lives; voting
	// continues over the survivors.
	LadderQuorum
	// LadderFull: every configured variant is live.
	LadderFull
)

func (r LadderRung) String() string {
	switch r {
	case LadderHalted:
		return "halted"
	case LadderSingle:
		return "single"
	case LadderQuorum:
		return "quorum"
	case LadderFull:
		return "full"
	default:
		return fmt.Sprintf("LadderRung(%d)", int(r))
	}
}

// rungFor places a stage with live of size configured variants on the ladder.
func rungFor(live, size int) LadderRung {
	switch {
	case live <= 0:
		return LadderHalted
	case live >= size:
		return LadderFull
	case live == 1:
		return LadderSingle
	default:
		return LadderQuorum
	}
}

// Event records a security-relevant engine occurrence.
type Event struct {
	Kind    EventKind
	Stage   int
	BatchID uint64
	// Variants lists the dissenting/affected variant IDs.
	Variants []string
	Detail   string
	Time     time.Time
}

// MarshalJSON renders the event for operator streams (/events SSE) with the
// kind spelled out and its severity classification attached.
func (e Event) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Time     time.Time `json:"time"`
		Kind     string    `json:"kind"`
		Severity string    `json:"severity"`
		Stage    int       `json:"stage"`
		BatchID  uint64    `json:"batch_id"`
		Variants []string  `json:"variants,omitempty"`
		Detail   string    `json:"detail,omitempty"`
	}{e.Time, e.Kind.String(), e.Kind.Severity().String(), e.Stage, e.BatchID, e.Variants, e.Detail})
}

// Engine executes batches through the partitioned variant pipeline. Create
// with NewEngine, start with Start, feed with Submit, consume Outputs.
type Engine struct {
	cfg    EngineConfig
	stages []*stage

	routerCh  chan routerMsg
	outCh     chan BatchResult
	slots     chan struct{}
	replReqCh chan replaceReq

	// ladder holds each stage's current degradation rung (written by the
	// stage worker, read by Ladder).
	ladder []atomic.Int32
	// halted is set with failed: once the engine rejects every Submit,
	// Ladder reports every stage halted whatever the stage workers last set.
	halted atomic.Bool

	// dynWindow is the effective per-stage credit window, initialized from
	// EngineConfig.InflightWindow and retunable live (SetInflightWindow) by
	// the adaptive controller. Stage workers read it on every drain, so a
	// retune applies at the next dispatch opportunity.
	dynWindow atomic.Int32

	// eventBus fans security events out to subscribers (the /events SSE
	// stream) without ever blocking a producer; its ring also backs the
	// Events() snapshot. met and tracer are the pre-resolved telemetry
	// handles — registered once at construction, recorded into lock-free.
	eventBus *telemetry.Bus[Event]
	met      *engineMetrics
	tracer   *telemetry.Tracer

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	// fwdWg tracks handle forwarders, which — unlike the fixed worker set in
	// wg — are also spawned dynamically by the replacer during recovery.
	fwdWg sync.WaitGroup

	mu      sync.Mutex
	failed  error
	started bool
}

// batchIDs issues process-unique batch identifiers so results straggling
// across an engine rebuild (variant updates) can never be confused with a
// new engine's batches.
var batchIDs atomic.Uint64

type routerMsg struct {
	// submit
	submit  bool
	id      uint64
	trace   uint64
	tensors map[string]*tensor.Tensor
	start   time.Time
	// stage completion
	stageIdx int
	done     bool
	outs     map[string]*tensor.Tensor
	digest   check.Digest // outs' digest if the DigestSink took one, else zero
	err      error
	// failure escalation
	fatal error
}

type stage struct {
	idx     int
	spec    StageSpec
	workCh  chan stageWork
	resCh   chan handleResult
	replCh  chan stageReplacement
	done    chan struct{}
	mvxSize int
}

type stageWork struct {
	id      uint64
	trace   uint64
	tensors map[string]*tensor.Tensor
}

// replaceReq asks the replacer for a spare to fill a dead slot.
type replaceReq struct {
	s          *stage
	slot       int
	deadID     string
	sinceBatch uint64
}

// stageReplacement delivers a bound replacement handle to its stage worker.
type stageReplacement struct {
	slot int
	h    *Handle
}

// ErrEngineStopped is returned by Submit after Stop or a fatal failure.
var ErrEngineStopped = errors.New("monitor: engine stopped")

// NewEngine validates cfg and builds an engine (not yet running).
func NewEngine(cfg EngineConfig) (*Engine, error) {
	if len(cfg.Stages) == 0 {
		return nil, fmt.Errorf("%w: no stages", ErrConfig)
	}
	for i, s := range cfg.Stages {
		if len(s.Handles) == 0 {
			return nil, fmt.Errorf("%w: stage %d has no variants", ErrConfig, i)
		}
	}
	if cfg.Vote == 0 {
		cfg.Vote = check.Unanimous
	}
	if cfg.Response == 0 {
		cfg.Response = Halt
	}
	if cfg.MaxInFlight == 0 {
		cfg.MaxInFlight = 2 * len(cfg.Stages)
	}
	if len(cfg.Policy.Criteria) == 0 {
		cfg.Policy = check.DefaultPolicy()
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.Default
	}
	tracer := cfg.Tracer
	if tracer == nil {
		tracer = telemetry.DefaultTracer
	}
	ctx, cancel := context.WithCancel(context.Background())
	e := &Engine{
		cfg:       cfg,
		routerCh:  make(chan routerMsg, cfg.MaxInFlight*(len(cfg.Stages)+2)+16),
		outCh:     make(chan BatchResult, cfg.MaxInFlight+1),
		slots:     make(chan struct{}, cfg.MaxInFlight),
		replReqCh: make(chan replaceReq, 4*len(cfg.Stages)+16),
		ladder:    make([]atomic.Int32, len(cfg.Stages)),
		eventBus:  telemetry.NewBus[Event](4096),
		met:       newEngineMetrics(reg, len(cfg.Stages)),
		tracer:    tracer,
		ctx:       ctx,
		cancel:    cancel,
	}
	e.dynWindow.Store(int32(cfg.InflightWindow))
	for i, s := range cfg.Stages {
		e.stages = append(e.stages, &stage{
			idx:     i,
			spec:    s,
			workCh:  make(chan stageWork, cfg.MaxInFlight),
			resCh:   make(chan handleResult, cfg.MaxInFlight*len(s.Handles)+4),
			replCh:  make(chan stageReplacement, len(s.Handles)+1),
			done:    make(chan struct{}),
			mvxSize: len(s.Handles),
		})
		e.ladder[i].Store(int32(rungFor(len(s.Handles), len(s.Handles))))
	}
	return e, nil
}

// Start launches the router, stage workers and handle readers.
func (e *Engine) Start() {
	e.mu.Lock()
	if e.started {
		e.mu.Unlock()
		return
	}
	e.started = true
	e.mu.Unlock()

	for _, s := range e.stages {
		for _, h := range s.spec.Handles {
			e.startForwarder(s, h)
		}
		s := s
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			e.stageWorker(s)
		}()
	}
	if e.cfg.Replace != nil {
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			e.replacer()
		}()
	}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		e.router()
	}()
}

// startForwarder launches the handle-owned reader (idempotent) and a
// forwarder moving the handle's results into the stage's merge channel for
// this engine's lifetime; the reader survives engine teardown (variant
// updates).
func (e *Engine) startForwarder(s *stage, h *Handle) {
	h.startReader()
	e.fwdWg.Add(1)
	go func() {
		defer e.fwdWg.Done()
		for {
			select {
			case <-e.ctx.Done():
				return
			case r := <-h.results:
				select {
				case s.resCh <- r:
				case <-e.ctx.Done():
					return
				}
			}
		}
	}()
}

// replacer serves hot-replacement requests off the checkpoint path: it asks
// cfg.Replace for a replacement handle (attested and bound by the caller —
// the monitor's spare pool appends the new binding to its log, §4.3) and
// hands it to the requesting stage, which installs it at the next checkpoint
// boundary.
func (e *Engine) replacer() {
	for {
		select {
		case <-e.ctx.Done():
			return
		case req := <-e.replReqCh:
			h, err := e.cfg.Replace(req.s.idx, req.slot, req.deadID, req.sinceBatch)
			if err != nil {
				e.recordEvent(Event{Kind: EventReplaceFailed, Stage: req.s.idx,
					Variants: []string{req.deadID}, Detail: err.Error()})
				continue
			}
			e.startForwarder(req.s, h)
			e.recordEvent(Event{Kind: EventVariantReplaced, Stage: req.s.idx,
				Variants: []string{req.deadID, h.ID()},
				Detail: fmt.Sprintf("slot %d: %s replaced by %s, resuming after batch %d",
					req.slot, req.deadID, h.ID(), req.sinceBatch)})
			select {
			case req.s.replCh <- stageReplacement{slot: req.slot, h: h}:
			case <-e.ctx.Done():
				return
			}
		}
	}
}

// Stop terminates the engine and shuts down the variants. Pending batches
// are abandoned.
func (e *Engine) Stop() {
	e.StopKeepVariants()
	for _, s := range e.stages {
		for _, h := range s.spec.Handles {
			h.shutdown()
		}
	}
}

// StopKeepVariants terminates the engine's goroutines but leaves the variant
// TEEs running — the quiesce step of the update flows (§4.3), after which
// individual variants can be unbound/rebound and a new engine built.
func (e *Engine) StopKeepVariants() {
	e.cancel()
	// Workers first: the replacer (tracked in wg) spawns forwarders, so every
	// fwdWg.Add happens before wg.Wait returns.
	e.wg.Wait()
	e.fwdWg.Wait()
}

// Outputs delivers one BatchResult per submitted batch, in completion order.
func (e *Engine) Outputs() <-chan BatchResult { return e.outCh }

// Started reports whether Start has been called.
func (e *Engine) Started() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.started
}

// Events returns a deep-copied snapshot of the retained security events:
// mutating a returned event (including its Variants slice) can never alias
// engine state. The backing store is a fixed ring — the oldest events are
// evicted once it fills; Total/Dropped accounting lives on EventBus.
func (e *Engine) Events() []Event {
	evs := e.eventBus.Snapshot()
	for i := range evs {
		evs[i].Variants = append([]string(nil), evs[i].Variants...)
	}
	return evs
}

// EventBus exposes the engine's event stream for subscribers (the monitor's
// /events SSE endpoint). Subscribers that fall behind lose events — the
// engine never blocks on them.
func (e *Engine) EventBus() *telemetry.Bus[Event] { return e.eventBus }

// InflightWindow returns the effective per-stage credit window.
func (e *Engine) InflightWindow() int { return int(e.dynWindow.Load()) }

// SetInflightWindow retunes the per-stage credit window live (the adaptive
// controller's actuator). n < 0 clamps to 0, which disables the window; the
// stage workers pick the new budget up at their next pending drain. Shrinking
// below the current outstanding-gather count simply pauses dispatch until
// enough gathers resolve — credits are never revoked mid-gather.
func (e *Engine) SetInflightWindow(n int) {
	if n < 0 {
		n = 0
	}
	e.dynWindow.Store(int32(n))
}

// Ladder returns each stage's current degradation rung; every stage reads
// halted once a fatal failure has stopped the engine accepting work.
// Transitions are also recorded as EventLadderDemoted/EventLadderPromoted
// events.
func (e *Engine) Ladder() []LadderRung {
	out := make([]LadderRung, len(e.ladder))
	if e.halted.Load() {
		for i := range out {
			out[i] = LadderHalted
		}
		return out
	}
	for i := range e.ladder {
		out[i] = LadderRung(e.ladder[i].Load())
	}
	return out
}

// halt records the engine's first fatal failure: Submit rejects all work
// from here on. It runs before the failure is delivered to any batch, so a
// health probe that sees the error also sees the halted ladder, and each
// stage's demotion is published for status subscribers (cluster replicas
// push their ladder to the router on it).
func (e *Engine) halt(cause error) {
	e.mu.Lock()
	first := e.failed == nil
	if first {
		e.failed = cause
	}
	e.mu.Unlock()
	if !first {
		return
	}
	e.halted.Store(true)
	for i := range e.ladder {
		prev := LadderRung(e.ladder[i].Load())
		if prev != LadderHalted {
			e.recordEvent(Event{Kind: EventLadderDemoted, Stage: i,
				Detail: fmt.Sprintf("%s→%s (engine halted: %v)", prev, LadderHalted, cause)})
		}
	}
}

func (e *Engine) setLadder(stage int, r LadderRung) {
	e.ladder[stage].Store(int32(r))
}

// worstRung returns the lowest (least healthy) stage rung — the engine-wide
// health level a transcript leaf records at delivery.
func (e *Engine) worstRung() LadderRung {
	worst := LadderFull
	for i := range e.ladder {
		if r := LadderRung(e.ladder[i].Load()); r < worst {
			worst = r
		}
	}
	return worst
}

func (e *Engine) recordEvent(ev Event) {
	ev.Time = time.Now()
	e.eventBus.Publish(ev)
	e.met.eventsDropped.Set(int64(e.eventBus.Dropped()))
}

// Submit enqueues one batch of model inputs, blocking while the pipeline is
// at MaxInFlight depth. It returns the assigned batch ID.
func (e *Engine) Submit(inputs map[string]*tensor.Tensor) (uint64, error) {
	// The batch-scoped trace ID rides the wire header to every variant and
	// back.
	id := NewBatchID()
	if err := e.SubmitID(id, inputs, telemetry.NewTraceID()); err != nil {
		return 0, err
	}
	return id, nil
}

// NewBatchID reserves a process-unique batch ID for SubmitID.
func NewBatchID() uint64 { return batchIDs.Add(1) }

// SubmitID is Submit under a caller-reserved batch ID (from NewBatchID, used
// once) and a caller-minted trace ID. Reserving the ID first lets the caller
// register its per-batch state before the engine can complete the batch; a
// cluster replica threads the router's trace ID through, so router- and
// replica-side spans stitch into one cross-node tree. Zero trace disables
// span recording for the batch. No result is ever delivered for an ID whose
// SubmitID failed.
func (e *Engine) SubmitID(id uint64, inputs map[string]*tensor.Tensor, trace uint64) error {
	if e.ctx.Err() != nil {
		// Checked first: the selects below pick at random once ctx is done.
		return ErrEngineStopped
	}
	e.mu.Lock()
	if err := e.failed; err != nil {
		e.mu.Unlock()
		return err
	}
	e.mu.Unlock()

	select {
	case e.slots <- struct{}{}:
	case <-e.ctx.Done():
		return ErrEngineStopped
	}
	select {
	case e.routerCh <- routerMsg{submit: true, id: id, trace: trace, tensors: inputs, start: time.Now()}:
		return nil
	case <-e.ctx.Done():
		return ErrEngineStopped
	}
}

// Tracer returns the span ring this engine records into — the harvest point
// for cluster trace federation (a replica server collects a batch's spans
// from here and ships them to the router).
func (e *Engine) Tracer() *telemetry.Tracer { return e.tracer }

// Infer runs one batch synchronously (sequential execution): it submits and
// waits for that batch's result. Do not mix Infer with concurrent Submit
// callers consuming Outputs.
func (e *Engine) Infer(inputs map[string]*tensor.Tensor) (BatchResult, error) {
	id, err := e.Submit(inputs)
	if err != nil {
		return BatchResult{}, err
	}
	for {
		select {
		case r, ok := <-e.outCh:
			if !ok {
				return BatchResult{}, ErrEngineStopped
			}
			if r.ID == id {
				return r, r.Err
			}
			// Stale result from an earlier failed batch; keep draining.
		case <-e.ctx.Done():
			return BatchResult{}, ErrEngineStopped
		}
	}
}

// Stream submits the batches for pipelined execution and collects one result
// per submitted batch, in completion order; a failed batch's result carries
// its Err. If a Submit fails (the engine halted or stopped mid-stream), the
// batches after it are not submitted, Stream waits only for the ones that
// were, and returns their results with the Submit error. It also returns
// once the engine stops. Like Infer, it must be the only consumer of Outputs.
func (e *Engine) Stream(batches []map[string]*tensor.Tensor) ([]BatchResult, error) {
	type submitted struct {
		n   int
		err error
	}
	// Submitting runs beside collecting: Submit blocks at MaxInFlight until
	// results are consumed.
	subCh := make(chan submitted, 1)
	go func() {
		for i, in := range batches {
			if _, err := e.Submit(in); err != nil {
				subCh <- submitted{i, err}
				return
			}
		}
		subCh <- submitted{len(batches), nil}
	}()
	results := make([]BatchResult, 0, len(batches))
	want := -1
	var err error
	for want < 0 || len(results) < want {
		select {
		case s := <-subCh:
			want, err = s.n, s.err
		case r := <-e.outCh:
			results = append(results, r)
		case <-e.ctx.Done():
			if want < 0 {
				err = (<-subCh).err // Submit returns at once on a stopped engine
			}
			if err == nil {
				err = ErrEngineStopped
			}
			return results, err
		}
	}
	return results, err
}

// --- router --------------------------------------------------------------------

type batchState struct {
	tensors    map[string]*tensor.Tensor
	dispatched []bool
	// running counts the stages the batch was dispatched to that have not
	// reported yet. A batch holds its MaxInFlight slot until it is delivered
	// and running is zero, so a failed batch still queued on a sibling DAG
	// branch keeps that branch's queue bounded by MaxInFlight.
	running   int
	start     time.Time
	trace     uint64
	delivered bool
	// inputs and checkpoints feed the transcript leaf; both stay nil
	// without a recorder.
	inputs      map[string]*tensor.Tensor
	checkpoints []transcript.Checkpoint
}

func (e *Engine) router() {
	batches := make(map[uint64]*batchState)
	for {
		select {
		case <-e.ctx.Done():
			return
		case m := <-e.routerCh:
			switch {
			case m.fatal != nil:
				e.halt(m.fatal)
				e.failAll(batches, m.fatal)
			case m.submit:
				b := &batchState{
					tensors:    make(map[string]*tensor.Tensor, len(m.tensors)+8),
					dispatched: make([]bool, len(e.stages)),
					start:      m.start,
					trace:      m.trace,
				}
				for k, v := range m.tensors {
					b.tensors[k] = v
				}
				if e.cfg.Transcript != nil {
					b.inputs = m.tensors
					b.checkpoints = make([]transcript.Checkpoint, len(e.stages))
				}
				batches[m.id] = b
				e.dispatchReady(m.id, b)
			case m.done:
				b, ok := batches[m.id]
				if !ok {
					break // batch already failed by a halt
				}
				b.running--
				if m.err != nil && !b.delivered && e.respMode() == Halt {
					halted := fmt.Errorf("monitor: pipeline halted: %w", m.err)
					e.halt(halted)
					b.delivered = true
					e.deliver(BatchResult{ID: m.id, Err: m.err}, b.trace, b.start)
					e.failAll(batches, halted)
					break
				}
				switch {
				case b.delivered:
					// A failed batch's sibling branch reporting: its outputs
					// feed nothing.
				case m.err != nil:
					// The error is the batch's result at once; its slot waits
					// for the stages still running it.
					b.delivered = true
					e.deliver(BatchResult{ID: m.id, Err: m.err}, b.trace, b.start)
				default:
					for k, v := range m.outs {
						b.tensors[k] = v
					}
					if b.checkpoints != nil {
						b.checkpoints[m.stageIdx] = transcript.Checkpoint{Digest: m.digest, Tensors: m.outs}
					}
					e.dispatchReady(m.id, b)
					if e.complete(b) {
						out := make(map[string]*tensor.Tensor, len(e.cfg.GraphOutputs))
						for _, name := range e.cfg.GraphOutputs {
							out[name] = b.tensors[name]
						}
						b.delivered = true
						if t := e.cfg.Transcript; t != nil {
							t.Record(transcript.Batch{Trace: b.trace, ID: m.id,
								Inputs: b.inputs, Outputs: out, Checkpoints: b.checkpoints,
								Rung: uint8(e.worstRung())})
						}
						e.deliver(BatchResult{ID: m.id, Tensors: out}, b.trace, b.start)
					}
				}
				if b.delivered && b.running == 0 {
					delete(batches, m.id)
					e.release()
				}
			}
		}
	}
}

func (e *Engine) respMode() ResponseMode { return e.cfg.Response }

// failAll fails every in-flight batch with err and frees its slot.
func (e *Engine) failAll(batches map[uint64]*batchState, err error) {
	for id, b := range batches {
		if !b.delivered {
			b.delivered = true
			e.deliver(BatchResult{ID: id, Err: err}, b.trace, b.start)
		}
		delete(batches, id)
		e.release()
	}
}

// deliver stamps the batch latency from a single clock read (shared with the
// root span's end) and hands the result to the consumer.
func (e *Engine) deliver(r BatchResult, trace uint64, start time.Time) {
	now := time.Now()
	r.Latency = now.Sub(start)
	e.met.batches.Inc()
	e.met.batchNs.Observe(r.Latency.Nanoseconds())
	e.tracer.Record(telemetry.Span{
		Trace: trace, Batch: r.ID, Name: "batch", Stage: -1,
		Start: start.UnixNano(), End: now.UnixNano(),
	})
	select {
	case e.outCh <- r:
	case <-e.ctx.Done():
	}
}

// release frees one batch's MaxInFlight slot.
func (e *Engine) release() {
	select {
	case <-e.slots:
	default:
	}
}

func (e *Engine) complete(b *batchState) bool {
	for _, name := range e.cfg.GraphOutputs {
		if _, ok := b.tensors[name]; !ok {
			return false
		}
	}
	return true
}

func (e *Engine) dispatchReady(id uint64, b *batchState) {
	for i, s := range e.stages {
		if b.dispatched[i] {
			continue
		}
		ready := true
		for _, in := range s.spec.Inputs {
			if _, ok := b.tensors[in]; !ok {
				ready = false
				break
			}
		}
		if !ready {
			continue
		}
		b.dispatched[i] = true
		b.running++
		ins := make(map[string]*tensor.Tensor, len(s.spec.Inputs))
		for _, in := range s.spec.Inputs {
			ins[in] = b.tensors[in]
		}
		select {
		case s.workCh <- stageWork{id: id, trace: b.trace, tensors: ins}:
		case <-e.ctx.Done():
			return
		}
	}
}
