// Package serve is the multi-tenant serving front-end: it multiplexes many
// concurrent client sessions onto one MVX engine. Single-input requests are
// coalesced into engine batches under a max-batch-size/max-delay window
// (dynamic micro-batching) and demultiplexed back to callers by request ID;
// bounded per-tenant and global queues provide admission control with
// explicit backpressure (reject-with-retry-after, never unbounded
// buffering); a weighted round-robin scheduler with priority lanes keeps
// tenants fair; and the degradation ladder drives load shedding so the
// front door lightens the engine's load before the engine has to demote.
//
// Batching contract: Config.ItemShapes declares the model's input interface,
// and admission accepts only requests that carry exactly the declared inputs
// with the declared per-item shapes, all sharing one leading dimension r
// (the item count, usually 1). Any two admitted requests may therefore share
// an engine batch. The model must treat the leading dimension as a batch
// axis: every graph output's leading dimension equals the sum of the
// batch's item counts, which is how results are split back per caller.
package serve

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/monitor"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// Engine is the slice of monitor.Engine the server drives. Submit must block
// for pipeline backpressure and return a unique batch ID; Outputs delivers
// one result per submitted batch; Ladder reports per-stage degradation.
type Engine interface {
	Submit(inputs map[string]*tensor.Tensor) (uint64, error)
	Outputs() <-chan monitor.BatchResult
	Ladder() []monitor.LadderRung
}

// Priority selects a request's scheduling lane. Lower values are more
// urgent; shedding drops lanes lowest-first.
type Priority int

// Priority lanes, most to least urgent.
const (
	High Priority = iota
	Normal
	Low
	numLanes
)

func (p Priority) String() string {
	switch p {
	case High:
		return "high"
	case Normal:
		return "normal"
	case Low:
		return "low"
	default:
		return fmt.Sprintf("Priority(%d)", int(p))
	}
}

// ParsePriority maps the wire spelling to a lane; empty means Normal.
func ParsePriority(s string) (Priority, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "high":
		return High, nil
	case "", "normal":
		return Normal, nil
	case "low":
		return Low, nil
	default:
		return 0, fmt.Errorf("serve: unknown priority %q", s)
	}
}

// Request is one client inference call.
type Request struct {
	// Tenant identifies the client for fairness and queue accounting; empty
	// maps to "default".
	Tenant string
	// Priority selects the scheduling lane (default Normal).
	Priority Priority
	// Inputs are the model inputs. All tensors must share leading dimension
	// r ≥ 1, the request's item count.
	Inputs map[string]*tensor.Tensor
}

// Response is the per-request outcome delivered to the caller.
type Response struct {
	// ID is the serve-assigned request identifier.
	ID uint64
	// BatchID is the engine batch that carried the request.
	BatchID uint64
	// BatchFill is how many requests shared that engine batch.
	BatchFill int
	// Tensors are this request's rows of the graph outputs.
	Tensors map[string]*tensor.Tensor
	// Err is the failure, if any.
	Err error
	// Latency is admission-to-delivery time.
	Latency time.Duration
}

// TenantConfig tunes one tenant's scheduling; every tenant's queue is
// bounded by Config.TenantQueue.
type TenantConfig struct {
	// Weight is the tenant's WRR share (default 1).
	Weight int
	// SLO is the tenant's declared p99 latency target; zero means no SLO.
	// The serve layer only records it — enforcement (weight boosts, shed
	// posture) is the adaptive controller's job (internal/control).
	SLO time.Duration
}

// ParseTenants parses a comma-separated "name:weight[:slo_ms]" tenant spec;
// sloDefaultMs (if > 0) applies to declared tenants that omit their own SLO.
// An empty spec declares no tenants.
func ParseTenants(spec string, sloDefaultMs float64) (map[string]TenantConfig, error) {
	if spec == "" {
		return nil, nil
	}
	out := make(map[string]TenantConfig)
	for _, part := range strings.Split(spec, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) < 2 || len(fields) > 3 || fields[0] == "" {
			return nil, fmt.Errorf("bad entry %q (want name:weight[:slo_ms])", part)
		}
		w, err := strconv.Atoi(fields[1])
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("bad weight in %q", part)
		}
		tc := TenantConfig{Weight: w}
		if len(fields) == 3 {
			ms, err := strconv.ParseFloat(fields[2], 64)
			if err != nil || ms <= 0 {
				return nil, fmt.Errorf("bad slo_ms in %q", part)
			}
			tc.SLO = time.Duration(ms * float64(time.Millisecond))
		} else if sloDefaultMs > 0 {
			tc.SLO = time.Duration(sloDefaultMs * float64(time.Millisecond))
		}
		out[fields[0]] = tc
	}
	return out, nil
}

// Config assembles a Server.
type Config struct {
	// MaxBatch is the most requests coalesced into one engine batch
	// (default 8).
	MaxBatch int
	// MaxDelay is the batching window: a partially filled batch flushes
	// this long after its first request (default 2ms).
	MaxDelay time.Duration
	// TenantQueue bounds each tenant's pending requests (default 64).
	TenantQueue int
	// GlobalQueue bounds total pending requests across tenants
	// (default 1024).
	GlobalQueue int
	// Tenants pre-declares per-tenant weights and SLOs; unknown tenants get
	// weight 1.
	Tenants map[string]TenantConfig
	// ItemShapes declares the model's input interface (graph input name ->
	// declared shape, leading dimension being the batch axis): requests with
	// missing/extra inputs or mismatched per-item dimensions are rejected at
	// admission with ErrBadRequest instead of reaching the engine, where a
	// malformed batch would fail — and, under the Halt response, take the
	// pipeline down for every tenant. A server with no declared inputs
	// admits nothing.
	ItemShapes map[string][]int
	// DisableBinary turns off the application/x-mvtee-tensor content type
	// on the HTTP front door; JSON stays available (compatibility gate for
	// staged rollouts).
	DisableBinary bool
	// Metrics receives the server's telemetry series; nil uses
	// telemetry.Default.
	Metrics *telemetry.Registry
}

const (
	// maxItems bounds a single request's item count (the shared leading
	// dimension of its inputs); larger requests are rejected at admission
	// with ErrBadRequest so an adversarial leading dimension can never
	// reach batch assembly or the engine.
	maxItems = 64
	// maxTenants caps how many undeclared tenants may hold resident state:
	// above the cap, admitting a request from a brand-new tenant name first
	// evicts the least-recently-active idle undeclared tenant. Declared
	// Config.Tenants are permanent and never counted against the cap.
	maxTenants = 256
	// retryAfterHint is the base backoff suggested to rejected callers; the
	// hint scales with queue depth or shed level.
	retryAfterHint = 25 * time.Millisecond
	// shedInterval is how often the ladder is polled for shedding decisions.
	shedInterval = 10 * time.Millisecond
)

func (c *Config) fill() {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 2 * time.Millisecond
	}
	if c.TenantQueue <= 0 {
		c.TenantQueue = 64
	}
	if c.GlobalQueue <= 0 {
		c.GlobalQueue = 1024
	}
}

// Admission errors.
var (
	// ErrDraining rejects new work while the server drains.
	ErrDraining = errors.New("serve: draining, not accepting new requests")
	// ErrClosed rejects work after Close.
	ErrClosed = errors.New("serve: server closed")
	// ErrBadRequest flags a structurally invalid request.
	ErrBadRequest = errors.New("serve: bad request")
)

// OverloadError is an admission rejection with an explicit backpressure
// signal: the caller should retry after RetryAfter rather than queue-spin.
type OverloadError struct {
	// Scope is "tenant", "global" or "shed".
	Scope string
	// Tenant is the rejected tenant.
	Tenant string
	// RetryAfter is the suggested backoff.
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("serve: %s overloaded (tenant %q), retry after %v",
		e.Scope, e.Tenant, e.RetryAfter)
}

// pendingReq is one admitted request waiting to be batched or in flight.
type pendingReq struct {
	id       uint64
	tenant   *tenantState
	lane     Priority
	rows     int
	inputs   map[string]*tensor.Tensor
	admitted time.Time
	respCh   chan Response
}

// Server multiplexes client requests onto one engine.
type Server struct {
	cfg    Config
	engine Engine
	met    *serveMetrics

	// dynBatch and dynDelayNs are the effective batching window, initialized
	// from Config and re-tuned live by the adaptive controller
	// (internal/control). With no controller attached they never move, so
	// static deployments behave exactly as configured.
	dynBatch   atomic.Int64
	dynDelayNs atomic.Int64
	// shedFloor is a controller-imposed minimum shed level; admission refuses
	// at max(ladder-derived level, floor), so the controller can only ever
	// shed MORE than the ladder demands, never admit past it.
	shedFloor atomic.Int32

	mu         sync.Mutex
	cond       *sync.Cond
	tenants    map[string]*tenantState
	ring       []*tenantState // WRR visit order, insertion-ordered
	cursor     int
	queued     int
	undeclared int // resident tenantStates not pre-declared in cfg.Tenants
	// flushing marks a batch being assembled/submitted whose requests left
	// the queues but are not yet in the pending map; Drain must wait it out.
	flushing bool
	draining bool
	closed   bool

	pmu     sync.Mutex
	pending map[uint64][]*pendingReq // engine batch ID -> members
	// early parks results that reached demux while the scheduler's Submit
	// call was still in flight, before it returned their batch ID; the
	// scheduler claims its own on return and drops the rest. earlyIDs holds
	// their arrival order, so a flood of results the server never submitted
	// evicts the oldest and the map stays within maxEarly.
	early      map[uint64]monitor.BatchResult
	earlyIDs   []uint64
	submitting bool

	shed    atomic.Int32 // ShedLevel
	reqIDs  atomic.Uint64
	stopped chan struct{} // closed when scheduler+demux exit
	stopSig chan struct{} // closed by Close
	wg      sync.WaitGroup
}

// tenantState is one tenant's queues and WRR bookkeeping.
type tenantState struct {
	name     string
	weight   int
	credit   int
	declared bool // pre-declared in Config.Tenants: never evicted
	lanes    [numLanes][]*pendingReq
	depth    int
	// lastActive is the last admission touching this tenant, the eviction
	// ordering key for idle undeclared tenants.
	lastActive time.Time
	met        *tenantMetrics
}

// New builds a server over engine. The engine must already be started; the
// server takes over its Outputs stream (do not mix with Engine.Infer).
func New(engine Engine, cfg Config) *Server {
	cfg.fill()
	s := &Server{
		cfg:     cfg,
		engine:  engine,
		met:     newServeMetrics(cfg.Metrics),
		tenants: make(map[string]*tenantState),
		pending: make(map[uint64][]*pendingReq),
		early:   make(map[uint64]monitor.BatchResult),
		stopped: make(chan struct{}),
		stopSig: make(chan struct{}),
	}
	s.dynBatch.Store(int64(cfg.MaxBatch))
	s.dynDelayNs.Store(int64(cfg.MaxDelay))
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(3)
	go func() { defer s.wg.Done(); s.scheduler() }()
	go func() { defer s.wg.Done(); s.demux() }()
	go func() { defer s.wg.Done(); s.shedWatcher() }()
	go func() { s.wg.Wait(); close(s.stopped) }()
	return s
}

// tenant returns (creating if needed) the tenant's state. Caller holds mu.
//
// Undeclared tenant names are attacker-controlled (the X-MVTEE-Tenant
// header), so their resident state must be bounded: above maxTenants,
// creating a new undeclared tenant first evicts the least-recently-active
// idle one. Tenants with queued work are never evicted — their count is
// already bounded by GlobalQueue — and declared tenants are permanent.
func (s *Server) tenant(name string) *tenantState {
	if name == "" {
		name = "default"
	}
	t, ok := s.tenants[name]
	if ok {
		t.lastActive = time.Now()
		return t
	}
	tc, declared := s.cfg.Tenants[name]
	if tc.Weight <= 0 {
		tc.Weight = 1
	}
	if !declared {
		if s.undeclared >= maxTenants {
			s.evictIdleTenant()
		}
		s.undeclared++
	}
	t = &tenantState{name: name, weight: tc.Weight,
		credit: tc.Weight, declared: declared, lastActive: time.Now(),
		met: s.met.tenant(name, declared)}
	s.tenants[name] = t
	s.ring = append(s.ring, t)
	return t
}

// evictIdleTenant drops the least-recently-active undeclared tenant with no
// queued work, freeing its map entry and WRR ring slot. Caller holds mu.
func (s *Server) evictIdleTenant() {
	var victim *tenantState
	for _, t := range s.tenants {
		if t.declared || t.depth > 0 {
			continue
		}
		if victim == nil || t.lastActive.Before(victim.lastActive) {
			victim = t
		}
	}
	if victim == nil {
		return // every undeclared tenant has queued work (bounded by GlobalQueue)
	}
	delete(s.tenants, victim.name)
	s.undeclared--
	for i, t := range s.ring {
		if t != victim {
			continue
		}
		s.ring = append(s.ring[:i], s.ring[i+1:]...)
		if i < s.cursor {
			s.cursor--
		}
		if len(s.ring) > 0 {
			s.cursor %= len(s.ring)
		} else {
			s.cursor = 0
		}
		break
	}
}

// checkInput validates one input's shape against the declared input
// interface: a declared name, the declared rank, an item count (the leading
// dimension) in [1, maxItems] and the declared per-item dimensions. Both
// content types funnel every input through it, the binary path before any
// payload byte is read.
func checkInput(declared map[string][]int, name string, shape []int) error {
	want, ok := declared[name]
	switch {
	case !ok:
		return fmt.Errorf("%w: unknown input %q", ErrBadRequest, name)
	case len(shape) != len(want):
		return fmt.Errorf("%w: input %q rank %d, model declares %v", ErrBadRequest, name, len(shape), want)
	case len(shape) == 0 || shape[0] == 0:
		return fmt.Errorf("%w: input %q empty or missing leading item dimension", ErrBadRequest, name)
	case shape[0] > maxItems:
		return fmt.Errorf("%w: input %q item count %d exceeds max %d", ErrBadRequest, name, shape[0], maxItems)
	case !slices.Equal(shape[1:], want[1:]):
		// Copied so that shape does not escape on the admitted path.
		return fmt.Errorf("%w: input %q shape %v, model declares %v (batch axis excluded)",
			ErrBadRequest, name, append([]int(nil), shape...), want)
	}
	return nil
}

// checkInputs validates a request against the declared input interface
// (exactly the declared inputs, each passing checkInput, all with one item
// count) and returns that item count.
func checkInputs(declared map[string][]int, inputs map[string]*tensor.Tensor) (int, error) {
	if len(inputs) == 0 {
		return 0, fmt.Errorf("%w: no inputs", ErrBadRequest)
	}
	rows := -1
	var dims [8]int // the shape is read into stack room, not copied by Shape
	for name, t := range inputs {
		if t == nil {
			return 0, fmt.Errorf("%w: input %q is nil", ErrBadRequest, name)
		}
		shape := dims[:0]
		for i := 0; i < t.Dims(); i++ {
			shape = append(shape, t.Dim(i))
		}
		if err := checkInput(declared, name, shape); err != nil {
			return 0, err
		}
		if rows == -1 {
			rows = t.Dim(0)
		} else if t.Dim(0) != rows {
			return 0, fmt.Errorf("%w: input %q item count %d != %d", ErrBadRequest, name, t.Dim(0), rows)
		}
	}
	for name := range declared {
		if _, ok := inputs[name]; !ok {
			return 0, fmt.Errorf("%w: missing input %q", ErrBadRequest, name)
		}
	}
	return rows, nil
}

// Submit admits one request, returning a channel that will deliver exactly
// one Response. Admission is synchronous: an error return means the request
// was never queued. Overload rejections are *OverloadError with a
// retry-after hint.
func (s *Server) Submit(req Request) (<-chan Response, error) {
	rows, err := checkInputs(s.cfg.ItemShapes, req.Inputs)
	if err != nil {
		return nil, err
	}
	if req.Priority < High || req.Priority >= numLanes {
		return nil, fmt.Errorf("%w: priority %d", ErrBadRequest, req.Priority)
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if s.draining {
		s.mu.Unlock()
		s.met.admission(admitDraining)
		return nil, ErrDraining
	}
	t := s.tenant(req.Tenant)
	if lvl := s.effectiveShed(); lvl.sheds(req.Priority) {
		s.mu.Unlock()
		s.met.admission(admitShed)
		return nil, &OverloadError{Scope: "shed", Tenant: t.name, RetryAfter: s.shedRetryAfter(lvl)}
	}
	if s.queued >= s.cfg.GlobalQueue {
		depth := s.queued
		s.mu.Unlock()
		s.met.admission(admitRejectGlobal)
		return nil, &OverloadError{Scope: "global", Tenant: t.name, RetryAfter: s.retryAfter(depth)}
	}
	if t.depth >= s.cfg.TenantQueue {
		depth := t.depth
		s.mu.Unlock()
		s.met.admission(admitRejectTenant)
		t.met.rejected.Inc()
		return nil, &OverloadError{Scope: "tenant", Tenant: t.name, RetryAfter: s.retryAfter(depth)}
	}
	p := &pendingReq{
		id:       s.reqIDs.Add(1),
		tenant:   t,
		lane:     req.Priority,
		rows:     rows,
		inputs:   req.Inputs,
		admitted: time.Now(),
		respCh:   make(chan Response, 1),
	}
	t.lanes[req.Priority] = append(t.lanes[req.Priority], p)
	t.depth++
	s.queued++
	t.met.requests.Inc()
	s.met.globalDepth.Set(int64(s.queued))
	s.cond.Broadcast()
	s.mu.Unlock()
	s.met.admission(admitAdmitted)
	return p.respCh, nil
}

// Infer is Submit plus waiting for the response (or ctx cancellation; a
// cancelled request still completes engine-side, its response is dropped).
func (s *Server) Infer(ctx context.Context, req Request) (Response, error) {
	ch, err := s.Submit(req)
	if err != nil {
		return Response{}, err
	}
	select {
	case r := <-ch:
		return r, r.Err
	case <-ctx.Done():
		return Response{}, ctx.Err()
	}
}

// retryAfter scales the base hint by how many batch windows of work are
// already queued — deeper queues suggest longer backoff.
func (s *Server) retryAfter(depth int) time.Duration {
	maxBatch := int(s.dynBatch.Load())
	if maxBatch <= 0 {
		maxBatch = 1
	}
	windows := depth/maxBatch + 1
	return time.Duration(windows) * retryAfterHint
}

// shedRetryAfter scales the backoff hint with the shedding severity: queue
// depth says nothing about when a degraded engine recovers, so the hint
// quadruples per shed level (4x at ShedLow, 16x at ShedToHigh, 64x — 1.6s at
// the default hint — when the engine is halted): clients rejected because
// the ladder collapsed back off for seconds, not a single batch window.
func (s *Server) shedRetryAfter(lvl ShedLevel) time.Duration {
	if lvl < ShedNone {
		lvl = ShedNone
	}
	if lvl > ShedAll {
		lvl = ShedAll
	}
	return retryAfterHint << (2 * uint(lvl))
}

// QueueDepths snapshots per-tenant queue depths (for /healthz).
func (s *Server) QueueDepths() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int, len(s.tenants))
	for n, t := range s.tenants {
		out[n] = t.depth
	}
	return out
}

// Shed returns the effective load-shedding level admission applies: the
// harsher of the ladder-derived level and the controller's floor.
func (s *Server) Shed() ShedLevel { return s.effectiveShed() }

func (s *Server) effectiveShed() ShedLevel {
	lvl := ShedLevel(s.shed.Load())
	if f := ShedLevel(s.shedFloor.Load()); f > lvl {
		lvl = f
	}
	return lvl
}

// --- adaptive-controller actuators ----------------------------------------------
//
// These are the knobs internal/control steers every epoch. All of them are
// safe for concurrent use with admission and the scheduler; none of them is
// required — a server with no controller attached keeps its static Config
// behavior bit for bit.

// BatchWindow returns the effective batching window (max batch size, max
// delay) the scheduler currently applies.
func (s *Server) BatchWindow() (int, time.Duration) {
	return int(s.dynBatch.Load()), time.Duration(s.dynDelayNs.Load())
}

// SetBatchWindow retunes the batching window. Values are clamped to sane
// floors (batch >= 1, delay >= 0); the next batch assembly picks them up.
func (s *Server) SetBatchWindow(maxBatch int, maxDelay time.Duration) {
	if maxBatch < 1 {
		maxBatch = 1
	}
	if maxDelay < 0 {
		maxDelay = 0
	}
	s.dynBatch.Store(int64(maxBatch))
	s.dynDelayNs.Store(int64(maxDelay))
}

// TenantWeight reports a tenant's current WRR weight (0 if the tenant has no
// resident state yet).
func (s *Server) TenantWeight(name string) int {
	if name == "" {
		name = "default"
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.tenants[name]; ok {
		return t.weight
	}
	return 0
}

// SetTenantWeight adjusts a tenant's WRR share (creating the tenant's state
// if needed); weight is clamped to >= 1. Credits already spent this refill
// round are untouched — the new weight applies from the next refill.
func (s *Server) SetTenantWeight(name string, weight int) {
	if weight < 1 {
		weight = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.tenant(name).weight = weight
}

// SetShedFloor imposes a minimum shedding posture: admission refuses at
// max(ladder-derived level, floor). The floor can only ever ADD shedding on
// top of what the ladder demands — a controller bug can never re-admit lanes
// the degradation ladder shed.
func (s *Server) SetShedFloor(lvl ShedLevel) {
	if lvl < ShedNone {
		lvl = ShedNone
	}
	if lvl > ShedAll {
		lvl = ShedAll
	}
	s.shedFloor.Store(int32(lvl))
}

// ShedFloor returns the controller-imposed minimum shedding posture.
func (s *Server) ShedFloor() ShedLevel { return ShedLevel(s.shedFloor.Load()) }

// TenantSLOs lists the declared per-tenant p99 latency targets (the
// controller's SLO-enforcement inputs).
func (s *Server) TenantSLOs() map[string]time.Duration {
	out := make(map[string]time.Duration)
	for name, tc := range s.cfg.Tenants {
		if tc.SLO > 0 {
			out[name] = tc.SLO
		}
	}
	return out
}

// Draining reports whether the server has begun draining.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain stops admitting new requests, flushes the queues as final batches
// (ignoring the delay window), and waits for every in-flight batch to
// deliver — the graceful-shutdown half of Close. It returns ctx.Err() if
// the context expires first; already-admitted requests still complete.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.cond.Broadcast()
	s.mu.Unlock()

	tick := time.NewTicker(500 * time.Microsecond)
	defer tick.Stop()
	for {
		s.mu.Lock()
		empty := s.queued == 0 && !s.flushing
		s.mu.Unlock()
		if empty {
			s.pmu.Lock()
			inflight := len(s.pending)
			s.pmu.Unlock()
			if inflight == 0 {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// Close tears the server down. Queued and in-flight requests receive
// ErrClosed; call Drain first for a graceful stop. The engine is left
// running (its owner stops it).
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.stopped
		return
	}
	s.closed = true
	close(s.stopSig)
	// Fail everything still queued.
	for _, t := range s.tenants {
		for lane := range t.lanes {
			for _, p := range t.lanes[lane] {
				p.respCh <- Response{ID: p.id, Err: ErrClosed}
			}
			t.lanes[lane] = nil
		}
		t.depth = 0
	}
	s.queued = 0
	s.cond.Broadcast()
	s.mu.Unlock()

	// Fail everything in flight — twice: once now, and once after the
	// workers exit, because a batch mid-submit at close time registers
	// itself in pending only after the first sweep.
	failPending := func() {
		s.pmu.Lock()
		for id, members := range s.pending {
			for _, p := range members {
				select {
				case p.respCh <- Response{ID: p.id, BatchID: id, Err: ErrClosed}:
				default:
				}
			}
			delete(s.pending, id)
		}
		s.pmu.Unlock()
	}
	failPending()
	<-s.stopped
	failPending()
}

// --- scheduler -----------------------------------------------------------------

// pick dequeues the next request under WRR with priority lanes: the highest
// non-empty lane wins; within a lane, tenants are visited round-robin and
// spend weight-refilled credits. Within a tenant's lane, requests leave in
// arrival order. Caller holds mu.
func (s *Server) pick() *pendingReq {
	if s.queued == 0 {
		return nil
	}
	for lane := High; lane < numLanes; lane++ {
		// Two passes: first spend credits, then refill once and retry, so a
		// burst from one heavy tenant cannot starve the ring.
		for pass := 0; pass < 2; pass++ {
			n := len(s.ring)
			for i := 0; i < n; i++ {
				t := s.ring[(s.cursor+i)%n]
				q := t.lanes[lane]
				if len(q) == 0 || t.credit <= 0 {
					continue
				}
				p := q[0]
				t.lanes[lane] = q[1:]
				t.depth--
				t.credit--
				s.queued--
				s.cursor = (s.cursor + i) % n // resume fairness scan here
				if t.credit <= 0 {
					s.cursor = (s.cursor + 1) % n
				}
				s.met.globalDepth.Set(int64(s.queued))
				return p
			}
			if pass == 0 {
				refill := false
				for _, t := range s.ring {
					if t.credit <= 0 {
						t.credit = t.weight
						refill = true
					}
				}
				if !refill {
					break // credits weren't the blocker; lane has no match
				}
			}
		}
	}
	return nil
}

// scheduler assembles batches: it opens a batch with the WRR-chosen head,
// then pulls further requests until MaxBatch or the MaxDelay window
// closes (drain mode flushes immediately). Engine backpressure is absorbed
// here — Submit blocks while the pipeline is at depth, and admission keeps
// rejecting above the bounded queues.
func (s *Server) scheduler() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		for s.queued == 0 && !s.closed {
			s.cond.Wait()
		}
		if s.closed {
			return
		}
		first := s.pick()
		if first == nil {
			continue
		}
		// From here the batch members have left the queues (queued already
		// decremented) but are not yet in pending; flushing keeps Drain from
		// declaring the server empty while cond.Wait releases mu below.
		s.flushing = true
		// The effective window is read once per batch: a controller retune
		// mid-assembly applies from the next batch.
		maxBatch, maxDelay := s.BatchWindow()
		batch := append(make([]*pendingReq, 0, maxBatch), first)
		reason := flushSize
		if s.draining {
			for len(batch) < maxBatch {
				p := s.pick()
				if p == nil {
					break
				}
				batch = append(batch, p)
			}
			if len(batch) < maxBatch {
				reason = flushDrain
			}
		} else {
			deadline := time.Now().Add(maxDelay)
			// The broadcast must hold mu: the scheduler checks the deadline
			// and enters cond.Wait under mu, so a lock-free broadcast firing
			// in that gap would find no waiter and be lost, stalling the
			// partial batch until unrelated traffic next broadcasts.
			timer := time.AfterFunc(maxDelay, func() {
				s.mu.Lock()
				s.cond.Broadcast()
				s.mu.Unlock()
			})
			for len(batch) < maxBatch {
				if p := s.pick(); p != nil {
					batch = append(batch, p)
					continue
				}
				if s.closed || s.draining {
					reason = flushDrain
					break
				}
				if !time.Now().Before(deadline) {
					reason = flushTimer
					break
				}
				s.cond.Wait()
			}
			timer.Stop()
		}
		if s.closed {
			s.flushing = false
			for _, p := range batch {
				p.respCh <- Response{ID: p.id, Err: ErrClosed}
			}
			return
		}
		s.mu.Unlock()
		s.submitBatch(batch, reason)
		s.mu.Lock()
		s.flushing = false
	}
}

// maxEarly bounds the results demux parks while a Submit is in flight. Only
// the one batch being submitted can legitimately be early, and its result
// comes at the end of the call, once the engine has accepted the batch, so
// evicting the oldest loses it only if more than maxEarly foreign results
// follow it before Submit returns.
const maxEarly = 16

// submitBatch concatenates the batch's inputs, submits to the engine, and
// registers the members for demux. Called without mu, from the scheduler
// only, so at most one Submit is in flight.
//
// The engine mints the batch ID inside Submit and may deliver the result
// before Submit returns. demux parks such a result in early; submitBatch
// claims it here and delivers it instead of registering the batch.
func (s *Server) submitBatch(batch []*pendingReq, reason flushReason) {
	inputs := concatInputs(batch)
	s.pmu.Lock()
	s.submitting = true
	s.pmu.Unlock()
	id, err := s.engine.Submit(inputs)
	s.pmu.Lock()
	s.submitting = false
	r, raced := s.early[id]
	clear(s.early)
	s.earlyIDs = s.earlyIDs[:0]
	if err == nil && !raced {
		s.pending[id] = batch
	}
	inflight := len(s.pending)
	s.pmu.Unlock()
	if err != nil {
		for _, p := range batch {
			p.respCh <- Response{ID: p.id, Err: err, Latency: time.Since(p.admitted)}
		}
		return
	}
	s.met.flush(reason, len(batch), inflight)
	if raced {
		s.deliver(r, batch)
	}
}

// --- demux ---------------------------------------------------------------------

// demux routes engine results back to batch members, splitting output rows
// per request. A result for an unregistered batch is parked while a Submit
// is in flight (it may be that batch's, see submitBatch) and otherwise
// ignored: it belongs to a batch the server did not submit (engine IDs are
// process-unique) or repeats one already delivered.
func (s *Server) demux() {
	for {
		select {
		case <-s.stopSig:
			return
		case r, ok := <-s.engine.Outputs():
			if !ok {
				return
			}
			s.pmu.Lock()
			members := s.pending[r.ID]
			delete(s.pending, r.ID)
			s.met.inflight.Set(int64(len(s.pending)))
			if members == nil && s.submitting {
				s.park(r)
			}
			s.pmu.Unlock()
			if members == nil {
				continue
			}
			s.deliver(r, members)
		}
	}
}

// park holds r in early for the in-flight Submit, evicting the oldest parked
// result beyond maxEarly. Called with pmu held.
func (s *Server) park(r monitor.BatchResult) {
	if _, dup := s.early[r.ID]; dup {
		return
	}
	if len(s.earlyIDs) == maxEarly {
		delete(s.early, s.earlyIDs[0])
		s.earlyIDs = append(s.earlyIDs[:0], s.earlyIDs[1:]...)
	}
	s.early[r.ID] = r
	s.earlyIDs = append(s.earlyIDs, r.ID)
}

// deliver fans one engine result out to the batch's members.
func (s *Server) deliver(r monitor.BatchResult, members []*pendingReq) {
	now := time.Now()
	fill := len(members)
	if r.Err != nil {
		for _, p := range members {
			s.respond(p, Response{ID: p.id, BatchID: r.ID, BatchFill: fill, Err: r.Err}, now)
		}
		return
	}
	if fill == 1 {
		// Sole member: hand the engine tensors over without copying.
		p := members[0]
		s.respond(p, Response{ID: p.id, BatchID: r.ID, BatchFill: 1, Tensors: r.Tensors}, now)
		return
	}
	split, err := splitOutputs(r.Tensors, members)
	for i, p := range members {
		resp := Response{ID: p.id, BatchID: r.ID, BatchFill: fill}
		if err != nil {
			resp.Err = err
		} else {
			resp.Tensors = split[i]
		}
		s.respond(p, resp, now)
	}
}

func (s *Server) respond(p *pendingReq, resp Response, now time.Time) {
	resp.Latency = now.Sub(p.admitted)
	p.tenant.met.latencyNs.Observe(resp.Latency.Nanoseconds())
	select {
	case p.respCh <- resp:
	default: // Close already failed this request; never block demux
	}
}

// --- batching ------------------------------------------------------------------

// concatInputs stacks the members' input tensors along the leading item
// axis, in member order. A single-member batch reuses its tensors directly.
func concatInputs(batch []*pendingReq) map[string]*tensor.Tensor {
	if len(batch) == 1 {
		return batch[0].inputs
	}
	out := make(map[string]*tensor.Tensor, len(batch[0].inputs))
	for name, first := range batch[0].inputs {
		rows := 0
		for _, p := range batch {
			rows += p.inputs[name].Dim(0)
		}
		shape := first.Shape()
		shape[0] = rows
		t := tensor.New(shape...)
		dst := t.Data()
		off := 0
		for _, p := range batch {
			src := p.inputs[name].Data()
			copy(dst[off:], src)
			off += len(src)
		}
		out[name] = t
	}
	return out
}

// splitOutputs slices each graph output back into per-member tensors by
// rows. Row data is copied so no two callers alias one backing array.
func splitOutputs(outs map[string]*tensor.Tensor, members []*pendingReq) ([]map[string]*tensor.Tensor, error) {
	total := 0
	for _, p := range members {
		total += p.rows
	}
	res := make([]map[string]*tensor.Tensor, len(members))
	for i := range res {
		res[i] = make(map[string]*tensor.Tensor, len(outs))
	}
	for name, t := range outs {
		if t.Dims() == 0 || t.Dim(0) != total {
			return nil, fmt.Errorf("serve: output %q leading dimension %v does not match batch items %d (model not batchable?)",
				name, t.Shape(), total)
		}
		stride := t.Size() / total
		shape := t.Shape()
		data := t.Data()
		off := 0
		for i, p := range members {
			shape[0] = p.rows
			part := tensor.New(shape...)
			copy(part.Data(), data[off:off+p.rows*stride])
			res[i][name] = part
			off += p.rows * stride
		}
	}
	return res, nil
}
