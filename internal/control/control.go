package control

import (
	"strconv"
	"sync"
	"time"

	"repro/internal/monitor"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// Frontend is the serving-tier actuator surface; *serve.Server satisfies it.
type Frontend interface {
	BatchWindow() (int, time.Duration)
	SetBatchWindow(maxBatch int, maxDelay time.Duration)
	TenantWeight(name string) int
	SetTenantWeight(name string, weight int)
	ShedFloor() serve.ShedLevel
	SetShedFloor(lvl serve.ShedLevel)
	TenantSLOs() map[string]time.Duration
}

// Pipeline is the execution-engine actuator surface; *monitor.Engine
// satisfies it. Ladder doubles as the stage-count probe for resolving
// per-stage gather histograms.
type Pipeline interface {
	InflightWindow() int
	SetInflightWindow(n int)
	Ladder() []monitor.LadderRung
}

// SparePool is the replacement-pool actuator surface; *monitor.Monitor
// satisfies it.
type SparePool interface {
	SpareCount() int
	ProvisionSpare(partition int) error
	RetireSpare() bool
}

// Limits are the hard clamps every control law respects. The controller
// never actuates outside them regardless of what the telemetry says.
type Limits struct {
	MinBatch, MaxBatch   int
	MinDelay, MaxDelay   time.Duration
	MinWindow, MaxWindow int
	MinSpares, MaxSpares int
	MinWeight, MaxWeight int
}

// DefaultLimits returns the clamps the live controller runs inside. The
// pure laws take a Limits so the simulator (internal/pipesim) replays them
// inside the same box.
func DefaultLimits() Limits {
	return Limits{
		MinBatch: 1, MaxBatch: 64,
		MinDelay: 50 * time.Microsecond, MaxDelay: 20 * time.Millisecond,
		MinWindow: 1, MaxWindow: 64,
		MinSpares: 0, MaxSpares: 8,
		MinWeight: 1, MaxWeight: 64,
	}
}

const (
	// headroom pads the Little's-law window target so the window does not
	// throttle the steady state it was measured from.
	headroom = 1.25
	// breachEpochs is how many consecutive breached (or clean) epochs the
	// SLO loop requires before escalating (or relaxing).
	breachEpochs = 2
	// spareLead is how many epochs of death-rate coverage the spare pool
	// targets.
	spareLead = 2
)

// Config wires a Controller to its signals and actuators. Any nil actuator
// disables the loops that drive it (the -adaptive=false kill switch simply
// never constructs a Controller at all).
type Config struct {
	// Epoch is the control tick. Default 500ms — slow enough that the
	// histogram deltas carry real samples, fast enough to react to an SLO
	// breach within a couple of seconds.
	Epoch time.Duration
	// Registry is where the signals live. It must be the same registry the
	// serve front-end and engine record into. Default telemetry.Default.
	Registry *telemetry.Registry

	Frontend Frontend
	Pipeline Pipeline
	Spares   SparePool
	// Events feeds the spare loop's death-rate signal; typically
	// Engine.EventBus(). Nil disables the spare loop's burst response (the
	// rate EWMA then only ever sees zero deaths).
	Events *telemetry.Bus[monitor.Event]
}

func (c *Config) fill() {
	if c.Epoch <= 0 {
		c.Epoch = 500 * time.Millisecond
	}
	if c.Registry == nil {
		c.Registry = telemetry.Default
	}
}

// Decision records one actuation: which loop moved which knob, from where
// to where, and why. Decisions flow to subscribers of Decisions() and are
// mirrored into mvtee_control_decisions_total{loop,direction}.
type Decision struct {
	Loop      string // telemetry.ControlLoop*
	Direction string // "up" | "down"
	Knob      string // knob name, e.g. "max_batch", "shed_floor"
	Tenant    string // SLO-loop decisions only
	From, To  int64
	Reason    string
}

// tenantSLO is the SLO loop's per-tenant state.
type tenantSLO struct {
	slo      time.Duration
	hist     *telemetry.Histogram
	weight   *telemetry.Gauge
	breach   *telemetry.Counter
	prev     telemetry.HistState
	base     int // weight to restore to after recovery (0 = not yet sampled)
	over     int // consecutive breached epochs
	under    int // consecutive clean epochs
	breached bool
}

// Controller is the closed-loop control plane. One goroutine (Start/Stop),
// or explicit deterministic ticks via Step for tests.
type Controller struct {
	cfg Config
	lim Limits // DefaultLimits

	// Signal handles, resolved once at construction.
	flushSize  *telemetry.Counter
	flushTimer *telemetry.Counter
	fill       *telemetry.Histogram
	batches    *telemetry.Counter
	gather     []*telemetry.Histogram

	// Knob mirrors and decision counters.
	epochs      *telemetry.Counter
	gBatchMax   *telemetry.Gauge
	gBatchDelay *telemetry.Gauge
	gInflight   *telemetry.Gauge
	gSpares     *telemetry.Gauge
	gShedFloor  *telemetry.Gauge

	sub *telemetry.Sub[monitor.Event]
	dec *telemetry.Bus[Decision]

	mu sync.Mutex // serializes Step against itself (Run vs tests)
	// Previous-epoch snapshots (deltas are the signals).
	prevFlushSize  uint64
	prevFlushTimer uint64
	prevFill       telemetry.HistState
	prevBatches    uint64
	prevGather     []telemetry.HistState
	batchState     BatchState // slow-start memory for the batch loop
	tenants        map[string]*tenantSLO
	deathEWMA      float64
	lastDeathStage int
	out            []Decision // accumulates within one Step

	startOnce sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// New builds a controller. It resolves every telemetry handle up front (the
// registry is get-or-create, so construction order against the serving tier
// does not matter) and mirrors the actuators' current settings into the
// control knob gauges.
func New(cfg Config) *Controller {
	cfg.fill()
	reg := cfg.Registry
	c := &Controller{
		cfg:        cfg,
		lim:        DefaultLimits(),
		flushSize:  reg.Counter(telemetry.MetricServeFlushes, telemetry.L("reason", telemetry.FlushReasonSize)),
		flushTimer: reg.Counter(telemetry.MetricServeFlushes, telemetry.L("reason", telemetry.FlushReasonTimer)),
		fill:       reg.Histogram(telemetry.MetricServeBatchFill),
		batches:    reg.Counter(telemetry.MetricEngineBatches),

		epochs:      reg.Counter(telemetry.MetricControlEpochs),
		gBatchMax:   reg.Gauge(telemetry.MetricControlBatchMax),
		gBatchDelay: reg.Gauge(telemetry.MetricControlBatchDelayNs),
		gInflight:   reg.Gauge(telemetry.MetricControlInflightWindow),
		gSpares:     reg.Gauge(telemetry.MetricControlSpareTarget),
		gShedFloor:  reg.Gauge(telemetry.MetricControlShedFloor),

		dec:     telemetry.NewBus[Decision](128),
		tenants: make(map[string]*tenantSLO),
	}
	if cfg.Pipeline != nil {
		n := len(cfg.Pipeline.Ladder())
		c.gather = make([]*telemetry.Histogram, n)
		c.prevGather = make([]telemetry.HistState, n)
		for i := 0; i < n; i++ {
			c.gather[i] = reg.Histogram(telemetry.MetricEngineGatherNs,
				telemetry.L("stage", strconv.Itoa(i)))
		}
		c.gInflight.Set(int64(cfg.Pipeline.InflightWindow()))
	}
	if cfg.Frontend != nil {
		mb, md := cfg.Frontend.BatchWindow()
		c.gBatchMax.Set(int64(mb))
		c.gBatchDelay.Set(int64(md))
		c.gShedFloor.Set(int64(cfg.Frontend.ShedFloor()))
		for name, slo := range cfg.Frontend.TenantSLOs() {
			l := telemetry.L("tenant", name)
			c.tenants[name] = &tenantSLO{
				slo:    slo,
				hist:   reg.Histogram(telemetry.MetricServeLatencyNs, l),
				weight: reg.Gauge(telemetry.MetricControlTenantWeight, l),
				breach: reg.Counter(telemetry.MetricControlSLOBreaches, l),
			}
		}
	}
	if cfg.Spares != nil {
		c.gSpares.Set(int64(cfg.Spares.SpareCount()))
	}
	if cfg.Events != nil {
		c.sub = cfg.Events.Subscribe(256)
	}
	// Baseline the delta snapshots so the first epoch measures its own
	// window rather than all history before the controller attached.
	c.prevFlushSize = c.flushSize.Value()
	c.prevFlushTimer = c.flushTimer.Value()
	c.prevFill = c.fill.State()
	c.prevBatches = c.batches.Value()
	for i, h := range c.gather {
		c.prevGather[i] = h.State()
	}
	return c
}

// Decisions exposes the decision event bus (ring + fan-out; subscribers
// that fall behind lose events, the controller never blocks on them).
func (c *Controller) Decisions() *telemetry.Bus[Decision] { return c.dec }

// Start launches the epoch ticker goroutine. Idempotent.
func (c *Controller) Start() {
	c.startOnce.Do(func() {
		c.stop = make(chan struct{})
		c.done = make(chan struct{})
		go c.run()
	})
}

// Stop halts the ticker goroutine and closes the event subscription.
func (c *Controller) Stop() {
	if c.stop == nil {
		if c.sub != nil {
			c.sub.Close()
		}
		return
	}
	select {
	case <-c.stop:
	default:
		close(c.stop)
	}
	<-c.done
	if c.sub != nil {
		c.sub.Close()
	}
}

func (c *Controller) run() {
	defer close(c.done)
	tick := time.NewTicker(c.cfg.Epoch)
	defer tick.Stop()
	last := time.Now()
	for {
		select {
		case <-c.stop:
			return
		case now := <-tick.C:
			c.Step(now.Sub(last))
			last = now
		}
	}
}

// Step executes one control epoch over the telemetry accumulated in the
// last `elapsed` of wall time, returning the decisions it actuated (empty
// when every loop held). Exported so tests can drive the controller
// deterministically without the ticker.
func (c *Controller) Step(elapsed time.Duration) []Decision {
	c.mu.Lock()
	defer c.mu.Unlock()
	if elapsed <= 0 {
		elapsed = c.cfg.Epoch
	}
	c.epochs.Inc()
	c.out = c.out[:0]
	deaths, replaceFailed := c.drainEvents()
	if c.cfg.Frontend != nil {
		c.stepBatch()
	}
	if c.cfg.Pipeline != nil {
		c.stepInflight(elapsed)
	}
	if c.cfg.Spares != nil {
		c.stepSpares(deaths, replaceFailed)
	}
	if c.cfg.Frontend != nil {
		c.stepSLO()
	}
	return append([]Decision(nil), c.out...)
}

// drainEvents consumes everything queued on the engine event subscription:
// variant deaths feed the spare-rate EWMA, a failed replacement flags pool
// exhaustion for an immediate provision.
func (c *Controller) drainEvents() (deaths int, replaceFailed bool) {
	if c.sub == nil {
		return 0, false
	}
	for {
		select {
		case ev := <-c.sub.C:
			switch ev.Kind {
			case monitor.EventVariantTimeout, monitor.EventVariantDown, monitor.EventVariantDropped:
				deaths++
				c.lastDeathStage = ev.Stage
			case monitor.EventReplaceFailed:
				replaceFailed = true
				c.lastDeathStage = ev.Stage
			}
		default:
			return deaths, replaceFailed
		}
	}
}

func (c *Controller) emit(d Decision) {
	c.cfg.Registry.Counter(telemetry.MetricControlDecisions,
		telemetry.L("loop", d.Loop), telemetry.L("direction", d.Direction)).Inc()
	c.dec.Publish(d)
	c.out = append(c.out, d)
}

func direction(from, to int64) string {
	if to > from {
		return "up"
	}
	return "down"
}

// stepBatch adapts the micro-batching window from the flush-reason mix and
// the batch-fill histogram (law in BatchLaw, slow-start memory in BatchStep).
func (c *Controller) stepBatch() {
	fs, ft := c.flushSize.Value(), c.flushTimer.Value()
	fill := c.fill.State()
	sig := BatchSignals{
		FlushSize:  fs - c.prevFlushSize,
		FlushTimer: ft - c.prevFlushTimer,
		MeanFill:   fill.Sub(c.prevFill).Mean(),
	}
	c.prevFlushSize, c.prevFlushTimer, c.prevFill = fs, ft, fill

	mb, md := c.cfg.Frontend.BatchWindow()
	cur := BatchKnobs{MaxBatch: mb, MaxDelay: md}
	next := BatchStep(sig, cur, c.lim, &c.batchState)
	if next == cur {
		return
	}
	c.cfg.Frontend.SetBatchWindow(next.MaxBatch, next.MaxDelay)
	if next.MaxBatch != cur.MaxBatch {
		c.gBatchMax.Set(int64(next.MaxBatch))
		c.emit(Decision{Loop: telemetry.ControlLoopBatch, Knob: "max_batch",
			Direction: direction(int64(cur.MaxBatch), int64(next.MaxBatch)),
			From:      int64(cur.MaxBatch), To: int64(next.MaxBatch),
			Reason: "batch fill vs flush mix"})
	}
	if next.MaxDelay != cur.MaxDelay {
		c.gBatchDelay.Set(int64(next.MaxDelay))
		c.emit(Decision{Loop: telemetry.ControlLoopBatch, Knob: "max_delay_ns",
			Direction: direction(int64(cur.MaxDelay), int64(next.MaxDelay)),
			From:      int64(cur.MaxDelay), To: int64(next.MaxDelay),
			Reason: "batch fill vs flush mix"})
	}
}

// stepInflight sizes the engine's per-stage credit window by Little's law:
// arrival rate from the batch-counter delta, residence time from the p90 of
// the per-stage gather-latency histogram deltas (slowest stage wins).
func (c *Controller) stepInflight(elapsed time.Duration) {
	b := c.batches.Value()
	delta := b - c.prevBatches
	c.prevBatches = b
	var p90 uint64
	for i, h := range c.gather {
		st := h.State()
		d := st.Sub(c.prevGather[i])
		c.prevGather[i] = st
		if d.Count > 0 {
			if q := d.Quantile(0.90); q > p90 {
				p90 = q
			}
		}
	}
	cur := c.cfg.Pipeline.InflightWindow()
	if cur <= 0 {
		return // windowing disabled by deployment config: never impose one
	}
	if delta == 0 || p90 == 0 {
		return // idle epoch: no signal, hold
	}
	lambda := float64(delta) / elapsed.Seconds()
	target := LittleWindow(lambda, time.Duration(p90), headroom)
	target = clampInt(target, c.lim.MinWindow, c.lim.MaxWindow)
	// Hysteresis: act only outside a ±25% (and at least ±1) band.
	band := cur / 4
	if band < 1 {
		band = 1
	}
	if target >= cur-band && target <= cur+band {
		return
	}
	c.cfg.Pipeline.SetInflightWindow(target)
	c.gInflight.Set(int64(target))
	c.emit(Decision{Loop: telemetry.ControlLoopInflight, Knob: "inflight_window",
		Direction: direction(int64(cur), int64(target)),
		From:      int64(cur), To: int64(target),
		Reason: "little's law from gather p90"})
}

// stepSpares tracks a death-rate EWMA and drifts the spare pool toward
// SpareTarget — at most one provision or retire per epoch, so a telemetry
// glitch cannot mass-launch enclaves. A failed replacement (pool was empty
// when a variant died) forces a provision regardless of the smoothed rate.
func (c *Controller) stepSpares(deaths int, replaceFailed bool) {
	c.deathEWMA = 0.5*c.deathEWMA + 0.5*float64(deaths)
	if c.deathEWMA < 0.0625 {
		// Snap the decayed tail to zero: ceil() in SpareTarget would
		// otherwise keep one phantom death alive forever.
		c.deathEWMA = 0
	}
	lim := c.lim
	target := SpareTarget(c.deathEWMA, spareLead, lim.MinSpares, lim.MaxSpares)
	cur := c.cfg.Spares.SpareCount()
	if replaceFailed && target <= cur {
		target = clampInt(cur+1, lim.MinSpares, lim.MaxSpares)
	}
	c.gSpares.Set(int64(target))
	switch {
	case cur < target:
		if err := c.cfg.Spares.ProvisionSpare(c.lastDeathStage); err == nil {
			c.emit(Decision{Loop: telemetry.ControlLoopSpares, Knob: "spare_pool",
				Direction: "up", From: int64(cur), To: int64(cur + 1),
				Reason: "death rate vs pool"})
		}
	case cur > target+1 && c.deathEWMA < 0.5:
		// Shrink only well past target and only when deaths have quieted —
		// the +1 gap is the scale-down hysteresis.
		if c.cfg.Spares.RetireSpare() {
			c.emit(Decision{Loop: telemetry.ControlLoopSpares, Knob: "spare_pool",
				Direction: "down", From: int64(cur), To: int64(cur - 1),
				Reason: "pool idle above target"})
		}
	}
}

// stepSLO compares each declared tenant's epoch p99 against its SLO.
// Escalation order: first grow the tenant's WRR weight (local, cheap), then
// — weight exhausted — raise the global shed floor, never past ShedToHigh
// (High-priority traffic is never controller-shed; and the floor only adds
// to the ladder-derived level, so the controller can never re-admit lanes
// the degradation ladder shed). De-escalation reverses: floor first, then
// weights back to their configured base.
func (c *Controller) stepSLO() {
	allClean := len(c.tenants) > 0
	for name, t := range c.tenants {
		st := t.hist.State()
		d := st.Sub(t.prev)
		t.prev = st
		if d.Count == 0 {
			// No traffic: neither breach nor recovery evidence.
			if t.breached {
				allClean = false
			}
			continue
		}
		p99 := time.Duration(d.Quantile(0.99))
		if p99 > t.slo {
			t.breach.Inc()
			t.over++
			t.under = 0
			t.breached = true
			allClean = false
			if t.over >= breachEpochs {
				t.over = 0
				c.escalate(name, t)
			}
		} else {
			t.under++
			t.over = 0
			if t.under >= breachEpochs {
				t.breached = false
				if w := c.cfg.Frontend.TenantWeight(name); t.base > 0 && w > t.base && c.cfg.Frontend.ShedFloor() == serve.ShedNone {
					to := clampInt(w/2, t.base, c.lim.MaxWeight)
					c.cfg.Frontend.SetTenantWeight(name, to)
					t.weight.Set(int64(to))
					c.emit(Decision{Loop: telemetry.ControlLoopSLO, Knob: "weight",
						Tenant: name, Direction: "down", From: int64(w), To: int64(to),
						Reason: "p99 back under SLO"})
				}
			}
			if t.breached {
				allClean = false
			}
		}
	}
	// The shed floor is global: lower it only when every SLO tenant has
	// been clean long enough.
	if allClean {
		for _, t := range c.tenants {
			if t.under < breachEpochs {
				allClean = false
				break
			}
		}
	}
	if allClean {
		if floor := c.cfg.Frontend.ShedFloor(); floor > serve.ShedNone {
			c.cfg.Frontend.SetShedFloor(floor - 1)
			c.gShedFloor.Set(int64(floor - 1))
			c.emit(Decision{Loop: telemetry.ControlLoopSLO, Knob: "shed_floor",
				Direction: "down", From: int64(floor), To: int64(floor - 1),
				Reason: "all SLO tenants recovered"})
		}
	}
}

// escalate reacts to a sustained SLO breach for one tenant: double its WRR
// weight up to the clamp; once saturated, raise the global shed floor one
// level, capped at ShedToHigh.
func (c *Controller) escalate(name string, t *tenantSLO) {
	w := c.cfg.Frontend.TenantWeight(name)
	if w <= 0 {
		w = 1
	}
	if t.base == 0 {
		t.base = w // remember the configured weight to restore after recovery
	}
	if w < c.lim.MaxWeight {
		to := clampInt(w*2, c.lim.MinWeight, c.lim.MaxWeight)
		c.cfg.Frontend.SetTenantWeight(name, to)
		t.weight.Set(int64(to))
		c.emit(Decision{Loop: telemetry.ControlLoopSLO, Knob: "weight",
			Tenant: name, Direction: "up", From: int64(w), To: int64(to),
			Reason: "sustained p99 over SLO"})
		return
	}
	if floor := c.cfg.Frontend.ShedFloor(); floor < serve.ShedToHigh {
		c.cfg.Frontend.SetShedFloor(floor + 1)
		c.gShedFloor.Set(int64(floor + 1))
		c.emit(Decision{Loop: telemetry.ControlLoopSLO, Knob: "shed_floor",
			Tenant: name, Direction: "up", From: int64(floor), To: int64(floor + 1),
			Reason: "weight saturated, shedding low lanes"})
	}
}
