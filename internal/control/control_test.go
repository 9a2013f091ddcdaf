package control

import (
	"strconv"
	"testing"
	"time"

	"repro/internal/monitor"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// ---- fake actuators -------------------------------------------------------

type fakeFrontend struct {
	batch     int
	delay     time.Duration
	weights   map[string]int
	floor     serve.ShedLevel
	slos      map[string]time.Duration
	floorHist []serve.ShedLevel // every SetShedFloor value, in order
}

func newFakeFrontend() *fakeFrontend {
	return &fakeFrontend{batch: 8, delay: 2 * time.Millisecond, weights: map[string]int{}}
}

func (f *fakeFrontend) BatchWindow() (int, time.Duration)     { return f.batch, f.delay }
func (f *fakeFrontend) SetBatchWindow(b int, d time.Duration) { f.batch, f.delay = b, d }
func (f *fakeFrontend) TenantWeight(n string) int             { return f.weights[n] }
func (f *fakeFrontend) SetTenantWeight(n string, w int)       { f.weights[n] = w }
func (f *fakeFrontend) ShedFloor() serve.ShedLevel            { return f.floor }
func (f *fakeFrontend) TenantSLOs() map[string]time.Duration  { return f.slos }
func (f *fakeFrontend) SetShedFloor(l serve.ShedLevel) {
	f.floor = l
	f.floorHist = append(f.floorHist, l)
}

type fakePipeline struct {
	window int
	stages int
	sets   []int
}

func (p *fakePipeline) InflightWindow() int     { return p.window }
func (p *fakePipeline) SetInflightWindow(n int) { p.window = n; p.sets = append(p.sets, n) }
func (p *fakePipeline) Ladder() []monitor.LadderRung {
	return make([]monitor.LadderRung, p.stages)
}

type fakePool struct {
	spares     int
	provisions []int // partition per ProvisionSpare call
	retires    int
}

func (s *fakePool) SpareCount() int { return s.spares }
func (s *fakePool) ProvisionSpare(partition int) error {
	s.spares++
	s.provisions = append(s.provisions, partition)
	return nil
}
func (s *fakePool) RetireSpare() bool {
	if s.spares == 0 {
		return false
	}
	s.spares--
	s.retires++
	return true
}

// ---- pure-law invariants --------------------------------------------------

// feedback derives one epoch of batch signals from the current knobs at a
// fixed offered load — the plant model for closed-loop law tests.
func feedback(k BatchKnobs, ratePerSec float64) BatchSignals {
	fillPerWindow := ratePerSec * k.MaxDelay.Seconds()
	if fillPerWindow < 1 {
		fillPerWindow = 1 // a batch holds at least its first request
	}
	if fillPerWindow >= float64(k.MaxBatch) {
		// A window that fills before the deadline flushes by size — so a
		// full batch is never reported as a timer flush (MaxBatch=1 always
		// lands here: single-request batches flush instantly).
		return BatchSignals{FlushSize: 90, FlushTimer: 10, MeanFill: float64(k.MaxBatch)}
	}
	return BatchSignals{FlushSize: 10, FlushTimer: 90, MeanFill: fillPerWindow}
}

// TestBatchStepConvergesWithinBoundedRounds drives the slow-start law
// closed-loop at three fixed load levels and asserts the invariants: knobs
// always inside the clamps, the trajectory reaches a fixed point within a
// bounded number of rounds, and after that the only moves are the bounded
// probe cadence (one speculative grow per batchProbeEpochs, reverted the
// next round) — never a sustained oscillation.
func TestBatchStepConvergesWithinBoundedRounds(t *testing.T) {
	lim := DefaultLimits()
	const rounds = 40
	for _, tc := range []struct {
		name string
		rate float64 // requests per second
	}{
		{"saturated", 1e6},
		{"light", 100},
		{"moderate", 3200}, // ~6.4 fill at 2ms: inside the hold band
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := BatchKnobs{MaxBatch: 8, MaxDelay: 2 * time.Millisecond}
			st := &BatchState{}
			fixedAt, fixedK, deviations, streak := -1, k, 0, 0
			for round := 0; round < rounds; round++ {
				next := BatchStep(feedback(k, tc.rate), k, lim, st)
				if next.MaxBatch < lim.MinBatch || next.MaxBatch > lim.MaxBatch {
					t.Fatalf("round %d: MaxBatch %d outside [%d,%d]", round, next.MaxBatch, lim.MinBatch, lim.MaxBatch)
				}
				if next.MaxDelay < lim.MinDelay || next.MaxDelay > lim.MaxDelay {
					t.Fatalf("round %d: MaxDelay %v outside [%v,%v]", round, next.MaxDelay, lim.MinDelay, lim.MaxDelay)
				}
				if fixedAt < 0 {
					if next == k {
						fixedAt, fixedK = round, next
					}
				} else if next != fixedK {
					deviations++
					streak++
					// A probe leaves the fixed point for exactly one round
					// before the revert pulls it back; two in a row is a
					// real oscillation.
					if streak > 1 {
						t.Fatalf("round %d: %d consecutive rounds off the fixed point %+v (now %+v)",
							round, streak, fixedK, next)
					}
				} else {
					streak = 0
				}
				k = next
			}
			if fixedAt < 0 || fixedAt > 12 {
				t.Fatalf("did not converge within 12 rounds (fixed at %d), final %+v", fixedAt, k)
			}
			if maxDev := rounds/batchProbeEpochs + 1; deviations > maxDev {
				t.Fatalf("left the fixed point %d times after fixing at round %d, want <= %d (probe cadence)",
					deviations, fixedAt, maxDev)
			}
		})
	}
}

// TestBatchLawDirection pins the sign of each response: saturation grows the
// batch, light load shrinks the delay, timer stalls at half fill shrink the
// batch, no traffic holds everything.
func TestBatchLawDirection(t *testing.T) {
	lim := DefaultLimits()
	cur := BatchKnobs{MaxBatch: 8, MaxDelay: 2 * time.Millisecond}

	sat := BatchLaw(BatchSignals{FlushSize: 95, FlushTimer: 5, MeanFill: 8}, cur, lim)
	if sat.MaxBatch <= cur.MaxBatch {
		t.Fatalf("saturated signal did not grow MaxBatch: %+v", sat)
	}
	light := BatchLaw(BatchSignals{FlushSize: 2, FlushTimer: 98, MeanFill: 1}, cur, lim)
	if light.MaxDelay >= cur.MaxDelay {
		t.Fatalf("light signal did not shrink MaxDelay: %+v", light)
	}
	// Timer-dominated at exactly half fill: the window is wider than what
	// arrivals deliver before the deadline; halving it keeps the mean batch
	// and removes the stall.
	stalled := BatchLaw(BatchSignals{FlushSize: 5, FlushTimer: 95, MeanFill: 4}, cur, lim)
	if stalled.MaxBatch >= cur.MaxBatch {
		t.Fatalf("stalled signal did not shrink MaxBatch: %+v", stalled)
	}
	idle := BatchLaw(BatchSignals{}, cur, lim)
	if idle != cur {
		t.Fatalf("no-traffic epoch moved knobs: %+v", idle)
	}
}

// closedLoopFeedback models a saturating closed loop with `conc` blocked
// clients: a window no wider than the concurrency fills completely (size
// flushes); a wider one collects exactly the concurrency and stalls on the
// deadline timer (the overshoot state the bench exposed).
func closedLoopFeedback(k BatchKnobs, conc int) BatchSignals {
	if k.MaxBatch <= conc {
		return BatchSignals{FlushSize: 95, FlushTimer: 5, MeanFill: float64(k.MaxBatch)}
	}
	return BatchSignals{FlushSize: 5, FlushTimer: 95, MeanFill: float64(conc)}
}

// TestBatchStepConvergesAtConcurrency drives the slow-start law against the
// closed-loop plant: from a window below the offered concurrency it must
// grow to exactly the concurrency and then hold there, with overshoot
// limited to the bounded probe cadence (one speculative epoch per
// batchProbeEpochs), never a sustained stall state.
func TestBatchStepConvergesAtConcurrency(t *testing.T) {
	lim := DefaultLimits()
	const conc = 16
	const rounds = 3 * batchProbeEpochs
	k := BatchKnobs{MaxBatch: 8, MaxDelay: 500 * time.Microsecond}
	st := &BatchState{}
	reached, over := -1, 0
	for round := 0; round < rounds; round++ {
		k = BatchStep(closedLoopFeedback(k, conc), k, lim, st)
		if k.MaxBatch == conc && reached < 0 {
			reached = round
		}
		if reached >= 0 && k.MaxBatch != conc {
			if k.MaxBatch < conc {
				t.Fatalf("round %d: window fell below concurrency: %d", round, k.MaxBatch)
			}
			over++
		}
	}
	if reached < 0 || reached > 4 {
		t.Fatalf("did not reach the concurrency window within 4 rounds (reached at %d)", reached)
	}
	// Each probe overshoots for at most one epoch before the revert; with
	// three probe windows that bounds the speculative epochs.
	if maxOver := rounds/batchProbeEpochs + 1; over > maxOver {
		t.Fatalf("spent %d epochs above concurrency, want <= %d (probe cadence)", over, maxOver)
	}
	if k.MaxBatch != conc {
		t.Fatalf("final window %d, want %d", k.MaxBatch, conc)
	}
}

// TestBatchStepRecoversFromOvershotStart: an operator-misconfigured window
// far above the offered concurrency (every flush a deadline stall) must walk
// back down to the concurrency instead of holding in the degraded state.
func TestBatchStepRecoversFromOvershotStart(t *testing.T) {
	lim := DefaultLimits()
	const conc = 16
	k := BatchKnobs{MaxBatch: 64, MaxDelay: 500 * time.Microsecond}
	st := &BatchState{}
	for round := 0; round < 8; round++ {
		k = BatchStep(closedLoopFeedback(k, conc), k, lim, st)
		if k.MaxBatch == conc {
			return
		}
	}
	t.Fatalf("overshot start never recovered: final %+v", k)
}

// TestLittleWindowMonotone pins monotonicity in both signals — more load or
// more latency never yields a smaller window — plus the idle-epoch zero.
func TestLittleWindowMonotone(t *testing.T) {
	if got := LittleWindow(0, time.Second, 1.25); got != 0 {
		t.Fatalf("idle lambda gave %d, want 0", got)
	}
	if got := LittleWindow(100, 0, 1.25); got != 0 {
		t.Fatalf("zero latency gave %d, want 0", got)
	}
	prev := 0
	for _, lambda := range []float64{1, 10, 100, 1000} {
		w := LittleWindow(lambda, 50*time.Millisecond, 1.25)
		if w < prev {
			t.Fatalf("window shrank with rising load: lambda=%v w=%d prev=%d", lambda, w, prev)
		}
		prev = w
	}
	if a, b := LittleWindow(100, 10*time.Millisecond, 1.25), LittleWindow(100, 100*time.Millisecond, 1.25); b < a {
		t.Fatalf("window shrank with rising latency: %d -> %d", a, b)
	}
}

func TestSpareTargetClamps(t *testing.T) {
	if got := SpareTarget(0, 2, 1, 8); got != 1 {
		t.Fatalf("quiet target %d, want floor 1", got)
	}
	if got := SpareTarget(100, 2, 0, 8); got != 8 {
		t.Fatalf("burst target %d, want ceiling 8", got)
	}
	if got := SpareTarget(1.5, 2, 0, 8); got != 3 {
		t.Fatalf("target %d, want ceil(1.5*2)=3", got)
	}
}

// ---- controller epoch tests (deterministic Step) --------------------------

// feedServeLoad records one epoch of synthetic front-end telemetry.
func feedServeLoad(reg *telemetry.Registry, sizeFlushes, timerFlushes uint64, fill int64, n int) {
	reg.Counter(telemetry.MetricServeFlushes, telemetry.L("reason", telemetry.FlushReasonSize)).Add(sizeFlushes)
	reg.Counter(telemetry.MetricServeFlushes, telemetry.L("reason", telemetry.FlushReasonTimer)).Add(timerFlushes)
	h := reg.Histogram(telemetry.MetricServeBatchFill)
	for i := 0; i < n; i++ {
		h.Observe(fill)
	}
}

// TestStepBatchLoop closes the real loop: synthetic saturation telemetry in
// the registry, Step, and the actuator must have been widened with a
// decision emitted and counted.
func TestStepBatchLoop(t *testing.T) {
	reg := telemetry.NewRegistry()
	fe := newFakeFrontend()
	c := New(Config{Registry: reg, Frontend: fe})

	feedServeLoad(reg, 95, 5, 8, 100)
	dec := c.Step(time.Second)
	if fe.batch != 16 {
		t.Fatalf("saturated epoch: MaxBatch = %d, want 16", fe.batch)
	}
	if len(dec) != 1 || dec[0].Loop != telemetry.ControlLoopBatch || dec[0].Direction != "up" {
		t.Fatalf("decisions = %+v, want one batch_window up", dec)
	}
	if got := reg.Counter(telemetry.MetricControlDecisions,
		telemetry.L("loop", telemetry.ControlLoopBatch), telemetry.L("direction", "up")).Value(); got != 1 {
		t.Fatalf("decision counter = %d, want 1", got)
	}
	if got := reg.Gauge(telemetry.MetricControlBatchMax).Value(); got != 16 {
		t.Fatalf("batch_max gauge = %d, want 16", got)
	}

	// Idle epoch: no signal, no move.
	if dec := c.Step(time.Second); len(dec) != 0 {
		t.Fatalf("idle epoch emitted %+v", dec)
	}

	// Light epoch after a speculative grow: the wider window never filled,
	// so slow-start reverts the grow first...
	before := fe.delay
	feedServeLoad(reg, 2, 98, 1, 100)
	c.Step(time.Second)
	if fe.batch != 8 {
		t.Fatalf("light epoch after grow: MaxBatch = %d, want revert to 8", fe.batch)
	}
	// ...and the next light epoch trims the delay (nearly-empty batches mean
	// the deadline is pure queueing latency at this load).
	feedServeLoad(reg, 2, 98, 1, 100)
	c.Step(time.Second)
	if fe.delay >= before {
		t.Fatalf("light epoch: delay %v, want < %v", fe.delay, before)
	}
}

// TestStepInflightLoop feeds engine throughput + gather latency and expects
// a Little's-law window move with hysteresis and clamps respected.
func TestStepInflightLoop(t *testing.T) {
	reg := telemetry.NewRegistry()
	pl := &fakePipeline{window: 2, stages: 2}
	maxWindow := DefaultLimits().MaxWindow
	c := New(Config{Registry: reg, Pipeline: pl})

	// 1000 batches/s at ~64ms p90 gather => target ~ 1.25*1000*0.064 = 80+,
	// past the MaxWindow clamp.
	reg.Counter(telemetry.MetricEngineBatches).Add(1000)
	g := reg.Histogram(telemetry.MetricEngineGatherNs, telemetry.L("stage", "1"))
	for i := 0; i < 100; i++ {
		g.Observe(64_000_000)
	}
	dec := c.Step(time.Second)
	if pl.window != maxWindow {
		t.Fatalf("window = %d, want clamp at %d", pl.window, maxWindow)
	}
	if len(dec) != 1 || dec[0].Loop != telemetry.ControlLoopInflight || dec[0].Direction != "up" {
		t.Fatalf("decisions = %+v, want one inflight up", dec)
	}

	// Same load again: target clamps to current -> inside the band, hold.
	reg.Counter(telemetry.MetricEngineBatches).Add(1000)
	for i := 0; i < 100; i++ {
		g.Observe(64_000_000)
	}
	if dec := c.Step(time.Second); len(dec) != 0 {
		t.Fatalf("steady epoch moved the window: %+v", dec)
	}

	// Idle epoch: hold (never drive the window from no data).
	if dec := c.Step(time.Second); len(dec) != 0 || pl.window != maxWindow {
		t.Fatalf("idle epoch moved the window: %+v w=%d", dec, pl.window)
	}
}

// TestStepInflightRespectsDisabledWindow: a deployment that configured
// InflightWindow=0 (feature off) must never have a window imposed on it.
func TestStepInflightRespectsDisabledWindow(t *testing.T) {
	reg := telemetry.NewRegistry()
	pl := &fakePipeline{window: 0, stages: 1}
	c := New(Config{Registry: reg, Pipeline: pl})
	reg.Counter(telemetry.MetricEngineBatches).Add(1000)
	g := reg.Histogram(telemetry.MetricEngineGatherNs, telemetry.L("stage", "0"))
	for i := 0; i < 100; i++ {
		g.Observe(50_000_000)
	}
	if dec := c.Step(time.Second); len(dec) != 0 || pl.window != 0 {
		t.Fatalf("controller enabled a disabled window: %+v w=%d", dec, pl.window)
	}
}

// TestStepSpareLoop: deaths on the event bus raise the pool target (one
// provision per epoch); a replacement failure forces an immediate provision;
// quiet epochs drain the pool back down to the hysteresis gap.
func TestStepSpareLoop(t *testing.T) {
	reg := telemetry.NewRegistry()
	bus := telemetry.NewBus[monitor.Event](64)
	pool := &fakePool{}
	c := New(Config{Registry: reg, Spares: pool, Events: bus})
	defer c.Stop()

	// A burst of timeouts on stage 1.
	for i := 0; i < 4; i++ {
		bus.Publish(monitor.Event{Kind: monitor.EventVariantTimeout, Stage: 1})
	}
	dec := c.Step(time.Second)
	if pool.spares != 1 || len(dec) != 1 || dec[0].Direction != "up" {
		t.Fatalf("death burst: spares=%d dec=%+v, want one provision", pool.spares, dec)
	}
	if pool.provisions[0] != 1 {
		t.Fatalf("provisioned partition %d, want 1 (stage of the deaths)", pool.provisions[0])
	}

	// Pool exhausted at replacement time: provision now, whatever the EWMA.
	quietUntilEmpty := func() {
		for i := 0; i < 50 && pool.spares > 0; i++ {
			c.Step(time.Second)
		}
	}
	_ = quietUntilEmpty
	bus.Publish(monitor.Event{Kind: monitor.EventReplaceFailed, Stage: 0})
	before := pool.spares
	c.Step(time.Second)
	if pool.spares <= before-1 {
		t.Fatalf("replace-failed epoch did not provision (spares %d -> %d)", before, pool.spares)
	}

	// Quiet epochs: EWMA decays, pool drains one per epoch, never below
	// target+1 gap and never negative.
	peak := pool.spares
	for i := 0; i < 20; i++ {
		prev := pool.spares
		c.Step(time.Second)
		if pool.spares < prev-1 {
			t.Fatalf("retired more than one spare in an epoch: %d -> %d", prev, pool.spares)
		}
	}
	if pool.spares > peak || pool.spares > 1 {
		t.Fatalf("quiet pool did not drain: %d (peak %d)", pool.spares, peak)
	}
}

// breachEpoch records n requests at the given latency for a tenant.
func breachEpoch(reg *telemetry.Registry, tenant string, lat time.Duration, n int) {
	h := reg.Histogram(telemetry.MetricServeLatencyNs, telemetry.L("tenant", tenant))
	for i := 0; i < n; i++ {
		h.Observe(int64(lat))
	}
}

// TestStepSLOBreachRespondsWithinEpochs: a sustained p99 breach must produce
// a response within breachEpochs epochs — first weight, then (saturated)
// shed floor, which never passes ShedToHigh no matter how long the breach
// lasts (the chaos invariant: the controller can add shedding, but High
// lanes stay admitted and the ladder-derived level is never undercut because
// serve computes max(ladder, floor)).
func TestStepSLOBreachRespondsWithinEpochs(t *testing.T) {
	reg := telemetry.NewRegistry()
	fe := newFakeFrontend()
	fe.weights["gold"] = 2
	fe.slos = map[string]time.Duration{"gold": time.Millisecond}
	c := New(Config{Registry: reg, Frontend: fe})
	maxWeight := DefaultLimits().MaxWeight

	// Breach continuously; the first actuation must land within breachEpochs.
	var first int
	for epoch := 1; epoch <= 30; epoch++ {
		breachEpoch(reg, "gold", 20*time.Millisecond, 50)
		dec := c.Step(time.Second)
		if len(dec) > 0 && first == 0 {
			first = epoch
			if dec[0].Knob != "weight" || dec[0].Tenant != "gold" || dec[0].Direction != "up" {
				t.Fatalf("first SLO response = %+v, want gold weight up", dec[0])
			}
		}
	}
	if first == 0 || first > breachEpochs {
		t.Fatalf("first SLO response at epoch %d, want within breachEpochs=%d", first, breachEpochs)
	}
	if fe.weights["gold"] != maxWeight {
		t.Fatalf("sustained breach: weight = %d, want saturated at %d", fe.weights["gold"], maxWeight)
	}
	if fe.floor != serve.ShedToHigh {
		t.Fatalf("sustained breach after weight saturation: floor = %v, want ShedToHigh", fe.floor)
	}
	for _, l := range fe.floorHist {
		if l > serve.ShedToHigh {
			t.Fatalf("controller raised shed floor to %v — past ShedToHigh", l)
		}
	}
	if got := reg.Counter(telemetry.MetricControlSLOBreaches, telemetry.L("tenant", "gold")).Value(); got == 0 {
		t.Fatal("breach counter never incremented")
	}

	// Recovery: clean epochs lower the floor back to ShedNone first, then
	// restore the weight to its pre-breach base.
	for epoch := 0; epoch < 30; epoch++ {
		breachEpoch(reg, "gold", 100*time.Microsecond, 50)
		c.Step(time.Second)
	}
	if fe.floor != serve.ShedNone {
		t.Fatalf("recovered floor = %v, want ShedNone", fe.floor)
	}
	if fe.weights["gold"] != 2 {
		t.Fatalf("recovered weight = %d, want base 2", fe.weights["gold"])
	}
}

// TestRunTicksAndStops exercises the goroutine path: the ticker drives
// epochs, decisions reach bus subscribers, and Stop is idempotent.
func TestRunTicksAndStops(t *testing.T) {
	reg := telemetry.NewRegistry()
	fe := newFakeFrontend()
	c := New(Config{Registry: reg, Frontend: fe, Epoch: 5 * time.Millisecond})
	sub := c.Decisions().Subscribe(16)
	defer sub.Close()

	feedServeLoad(reg, 95, 5, 8, 100)
	c.Start()
	c.Start() // idempotent
	select {
	case d := <-sub.C:
		if d.Loop != telemetry.ControlLoopBatch {
			t.Fatalf("decision %+v, want batch_window", d)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no decision within 2s of Start")
	}
	c.Stop()
	c.Stop() // idempotent
	epochs := reg.Counter(telemetry.MetricControlEpochs).Value()
	if epochs == 0 {
		t.Fatal("ticker never stepped")
	}
}

// TestControllerAgainstLiveActuators wires the controller to a real
// serve.Server-shaped set of interfaces via compile-time assertions.
var (
	_ Frontend  = (*serve.Server)(nil)
	_ Pipeline  = (*monitor.Engine)(nil)
	_ SparePool = (*monitor.Monitor)(nil)
)

// TestGatherStageLabels guards the stage-label contract the inflight loop
// depends on: the controller resolves gather histograms with the same
// stage="<idx>" labels the engine registers.
func TestGatherStageLabels(t *testing.T) {
	reg := telemetry.NewRegistry()
	pl := &fakePipeline{window: 1, stages: 3}
	c := New(Config{Registry: reg, Pipeline: pl})
	if len(c.gather) != 3 {
		t.Fatalf("resolved %d stage histograms, want 3", len(c.gather))
	}
	for i := range c.gather {
		if c.gather[i] != reg.Histogram(telemetry.MetricEngineGatherNs, telemetry.L("stage", strconv.Itoa(i))) {
			t.Fatalf("stage %d handle does not match registry series", i)
		}
	}
}
