package pipesim

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/diversify"
	"repro/internal/monitor"
	"repro/internal/pfcrypt"
	"repro/internal/tensor"
)

const ms = time.Millisecond

// chain builds a linear pipeline profile with the given per-stage service
// times (single variant each).
func chain(svcs ...time.Duration) *Profile {
	p := &Profile{}
	for i, s := range svcs {
		sp := StageProfile{Service: []time.Duration{s}}
		if i > 0 {
			sp.Deps = []int{i - 1}
		}
		if i == len(svcs)-1 {
			sp.Output = true
		}
		p.Stages = append(p.Stages, sp)
	}
	return p
}

func approx(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*want
}

func TestSequentialLatencyIsSumOfStages(t *testing.T) {
	p := chain(10*ms, 20*ms, 30*ms)
	m, err := Simulate(p, 8, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(m.Latency.Seconds(), 0.060, 0.01) {
		t.Fatalf("seq latency = %v, want 60ms", m.Latency)
	}
	if !approx(m.Throughput, 1/0.060, 0.01) {
		t.Fatalf("seq throughput = %v", m.Throughput)
	}
}

func TestPipelinedThroughputIsBottleneckBound(t *testing.T) {
	p := chain(10*ms, 30*ms, 10*ms)
	m, err := Simulate(p, 64, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Steady state: one batch per 30ms (the bottleneck stage).
	if !approx(m.Throughput, 1/0.030, 0.05) {
		t.Fatalf("pipe throughput = %v, want ~33.3/s", m.Throughput)
	}
}

func TestPipelinedBeatsSequentialOnBalancedChain(t *testing.T) {
	p := chain(10*ms, 10*ms, 10*ms, 10*ms, 10*ms)
	seq, _ := Simulate(p, 64, true, 0)
	pipe, _ := Simulate(p, 64, false, 0)
	speedup := pipe.Throughput / seq.Throughput
	if speedup < 4 { // ideal 5x, minus fill/drain
		t.Fatalf("pipeline speedup = %.2f, want ~5x on a balanced 5-stage chain", speedup)
	}
}

func TestSlowPathWaitsForAllVariantsSync(t *testing.T) {
	p := &Profile{Stages: []StageProfile{{
		Service: []time.Duration{10 * ms, 10 * ms, 50 * ms},
		Check:   1 * ms,
		Output:  true,
	}}}
	m, err := Simulate(p, 4, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(m.Latency.Seconds(), 0.051, 0.01) {
		t.Fatalf("sync latency = %v, want straggler-bound 51ms", m.Latency)
	}
}

func TestAsyncReleasesAtQuorumButOutputWaits(t *testing.T) {
	// Two stages: MVX stage with straggler, then a fast stage. Async lets
	// stage 1 start at the quorum, so end-to-end latency is quorum-bound.
	p := &Profile{
		Async: true,
		Stages: []StageProfile{
			{Service: []time.Duration{10 * ms, 12 * ms, 60 * ms}, Check: 0},
			{Service: []time.Duration{5 * ms}, Deps: []int{0}, Output: true},
		},
	}
	m, err := Simulate(p, 1, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Quorum (2nd of 3) at 12ms + 5ms = 17ms.
	if !approx(m.Latency.Seconds(), 0.017, 0.05) {
		t.Fatalf("async latency = %v, want ~17ms", m.Latency)
	}
	sync := &Profile{Stages: p.Stages}
	ms2, _ := Simulate(sync, 1, true, 0)
	if ms2.Latency <= m.Latency {
		t.Fatalf("sync (%v) should be slower than async (%v)", ms2.Latency, m.Latency)
	}
}

func TestAsyncThroughputStillStragglerBound(t *testing.T) {
	// The straggler still serves every batch FIFO, so pipelined throughput
	// cannot exceed its rate even in async mode.
	p := &Profile{
		Async: true,
		Stages: []StageProfile{
			{Service: []time.Duration{10 * ms, 10 * ms, 40 * ms}, Output: true},
		},
	}
	m, err := Simulate(p, 64, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Throughput > 1/0.040*1.05 {
		t.Fatalf("async throughput %v exceeds straggler bound 25/s", m.Throughput)
	}
}

func TestStageTimeoutBoundsSyncLatency(t *testing.T) {
	// A 500ms straggler in a sync MVX stage: without a deadline the batch
	// is straggler-bound; with one, the checkpoint completes at the cutoff
	// with the two survivors.
	p := &Profile{Stages: []StageProfile{{
		Service: []time.Duration{10 * ms, 10 * ms, 500 * ms},
		Check:   1 * ms,
		Output:  true,
	}}}
	unbounded, err := Simulate(p, 1, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(unbounded.Latency.Seconds(), 0.501, 0.01) {
		t.Fatalf("no deadline: latency = %v, want straggler-bound 501ms", unbounded.Latency)
	}
	p.StageTimeout = 50 * ms
	bounded, err := Simulate(p, 1, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(bounded.Latency.Seconds(), 0.051, 0.01) {
		t.Fatalf("deadline: latency = %v, want cutoff-bound 51ms", bounded.Latency)
	}
}

func TestStageTimeoutRestoresAsyncThroughput(t *testing.T) {
	// The async straggler-bound case of TestAsyncThroughputStillStragglerBound:
	// with a deadline, the straggler is dropped and hot-replaced each time it
	// overruns, so pipelined throughput recovers past the straggler's rate.
	p := &Profile{
		Async: true,
		Stages: []StageProfile{
			{Service: []time.Duration{10 * ms, 10 * ms, 40 * ms}, Output: true},
		},
	}
	p.StageTimeout = 15 * ms
	m, err := Simulate(p, 64, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Throughput <= 1/0.040 {
		t.Fatalf("deadline should lift the straggler bound: %v <= 25/s", m.Throughput)
	}
}

func TestStageTimeoutIgnoredOnFastPath(t *testing.T) {
	// A single-variant stage has no quorum to degrade to: the deadline must
	// not truncate its (legitimate) service time.
	p := chain(100 * ms)
	p.StageTimeout = 10 * ms
	m, err := Simulate(p, 1, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(m.Latency.Seconds(), 0.100, 0.01) {
		t.Fatalf("fast-path latency = %v, want full 100ms", m.Latency)
	}
}

func TestMonitorThreadSerializesCheckpoints(t *testing.T) {
	// With transfer cost comparable to service, pipelined throughput is
	// bound by service + can't hide the serialized monitor work entirely.
	fast := chain(10 * ms)
	fast.Stages[0].TransferIn = 0
	noXfer, _ := Simulate(fast, 64, false, 0)

	slow := chain(10 * ms)
	slow.Stages[0].TransferIn = 5 * ms
	slow.Stages[0].TransferOut = 5 * ms
	withXfer, _ := Simulate(slow, 64, false, 0)
	if withXfer.Throughput >= noXfer.Throughput*0.95 {
		t.Fatalf("transfer costs must reduce pipelined throughput: %v vs %v",
			withXfer.Throughput, noXfer.Throughput)
	}
}

func TestDAGDependencies(t *testing.T) {
	// Diamond: stage 0 feeds stages 1 and 2; stage 3 joins them.
	p := &Profile{Stages: []StageProfile{
		{Service: []time.Duration{10 * ms}},
		{Service: []time.Duration{20 * ms}, Deps: []int{0}},
		{Service: []time.Duration{30 * ms}, Deps: []int{0}},
		{Service: []time.Duration{5 * ms}, Deps: []int{1, 2}, Output: true},
	}}
	m, err := Simulate(p, 1, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Critical path: 10 + 30 + 5 = 45ms (branches run concurrently).
	if !approx(m.Latency.Seconds(), 0.045, 0.01) {
		t.Fatalf("diamond latency = %v, want 45ms", m.Latency)
	}
}

func TestValidation(t *testing.T) {
	if _, err := Simulate(&Profile{}, 1, true, 0); err == nil {
		t.Fatal("empty profile accepted")
	}
	bad := &Profile{Stages: []StageProfile{{Service: []time.Duration{ms}, Deps: []int{0}}}}
	if _, err := Simulate(bad, 1, true, 0); err == nil {
		t.Fatal("self-dependency accepted")
	}
	if _, err := Simulate(chain(ms), 0, true, 0); err == nil {
		t.Fatal("zero batches accepted")
	}
	if _, err := Simulate(&Profile{Stages: []StageProfile{{}}}, 1, true, 0); err == nil {
		t.Fatal("variant-less stage accepted")
	}
}

func TestSimulateBaseline(t *testing.T) {
	m := SimulateBaseline(20*ms, 10)
	if !approx(m.Throughput, 50, 0.01) || m.Latency != 20*ms {
		t.Fatalf("baseline = %+v", m)
	}
}

func TestCalibrateOnRealBundle(t *testing.T) {
	b, err := core.BuildBundle(core.OfflineConfig{
		ModelName:        "mnasnet",
		PartitionTargets: []int{3},
		Specs:            []diversify.Spec{diversify.ReplicaSpec("replica")},
	})
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(1, 3, 32, 32)
	for i := range in.Data() {
		in.Data()[i] = 0.1
	}
	plans := []monitor.PartitionPlan{
		{Variants: []string{"replica"}},
		{Variants: []string{"replica", "replica", "replica"}},
		{Variants: []string{"replica"}},
	}
	prof, err := Calibrate(b, 0, in, CalibrationConfig{Plans: plans, TEEFactor: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.Stages) != 3 {
		t.Fatalf("%d stages", len(prof.Stages))
	}
	if len(prof.Stages[1].Service) != 3 || len(prof.Stages[0].Service) != 1 {
		t.Fatalf("variant counts: %d/%d", len(prof.Stages[0].Service), len(prof.Stages[1].Service))
	}
	if prof.Stages[1].Check == 0 {
		t.Fatal("MVX stage has no check cost")
	}
	if prof.Stages[0].Check != 0 {
		t.Fatal("fast-path stage has a check cost")
	}
	for i, s := range prof.Stages {
		if s.TransferIn <= 0 || s.TransferOut <= 0 {
			t.Fatalf("stage %d transfer not calibrated", i)
		}
		for _, svc := range s.Service {
			if svc <= 0 {
				t.Fatalf("stage %d service not calibrated", i)
			}
		}
	}
	// The profile must actually simulate.
	if _, err := Simulate(prof, 16, false, 0); err != nil {
		t.Fatal(err)
	}
	// Plan/partition mismatch rejected.
	if _, err := Calibrate(b, 0, in, CalibrationConfig{Plans: plans[:2]}); err == nil {
		t.Fatal("plan count mismatch accepted")
	}
}

// TestCalibrateRunsShippedEntries calibrates a diversified bundle straight
// from BuildBundle: every plan variant is the entry the bundle ships, opened
// from its ciphertext, so a plan naming an entry the bundle lacks and a
// tampered entry both fail calibration.
func TestCalibrateRunsShippedEntries(t *testing.T) {
	b, err := core.BuildBundle(core.OfflineConfig{
		ModelName:        "mnasnet",
		PartitionTargets: []int{2},
		Specs:            diversify.RealSetupSpecs(),
	})
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(1, 3, 32, 32)
	plans := []monitor.PartitionPlan{
		{Variants: []string{"ort-cpu"}},
		{Variants: []string{"ort-cpu", "ort-altep", "tvm-graph"}},
	}
	prof, err := Calibrate(b, 0, in, CalibrationConfig{Plans: plans, Reps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.Stages) != 2 || len(prof.Stages[1].Service) != 3 {
		t.Fatalf("profile stages %+v", prof.Stages)
	}

	missing := []monitor.PartitionPlan{plans[0], {Variants: []string{"tvm-heavy"}}}
	if _, err := Calibrate(b, 0, in, CalibrationConfig{Plans: missing, Reps: 1}); err == nil {
		t.Fatal("plan naming an entry the bundle does not ship was calibrated")
	}

	path := core.Entry{Set: 0, Partition: 1, Spec: "tvm-graph"}.GraphPath()
	ct := append([]byte(nil), b.FS[path]...)
	ct[len(ct)-1] ^= 1
	b.FS[path] = ct
	if _, err := Calibrate(b, 0, in, CalibrationConfig{Plans: plans, Reps: 1}); !errors.Is(err, pfcrypt.ErrAuth) {
		t.Fatalf("tampered entry: err = %v, want pfcrypt.ErrAuth", err)
	}
}

func TestCoreContention(t *testing.T) {
	p := &Profile{Stages: []StageProfile{{
		Service: []time.Duration{10 * ms, 10 * ms, 10 * ms, 10 * ms},
		Output:  true,
	}}}
	free, err := Simulate(p, 16, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.Cores = 2 // 4 variants on 2 cores: service doubles
	packed, err := Simulate(p, 16, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	ratio := free.Throughput / packed.Throughput
	if !approx(ratio, 2, 0.05) {
		t.Fatalf("2x oversubscription should halve throughput, ratio = %.2f", ratio)
	}
	p.Cores = 8 // budget exceeds demand: no penalty
	roomy, err := Simulate(p, 16, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(roomy.Throughput, free.Throughput, 0.01) {
		t.Fatalf("sufficient cores must not penalize: %v vs %v", roomy.Throughput, free.Throughput)
	}
}

func TestInflightWindowGatesOnStragglerResolution(t *testing.T) {
	// Async 3-variant stage with one chronic straggler and a straggler
	// deadline. Without a window the quorum forwards every batch at
	// service+transfer time (~14ms cycle) and the straggler's open gathers
	// pile up behind the stream — the exact backlog the credit window exists
	// to bound. With a window of 1, each dispatch waits for the previous
	// gather to fully close (its straggler pruned at the 30ms deadline), so
	// the cycle stretches to deadline+transfer (~32ms).
	p := &Profile{
		Stages: []StageProfile{{
			Service:    []time.Duration{10 * ms, 10 * ms, 50 * ms},
			TransferIn: 2 * ms, TransferOut: 2 * ms,
			Output: true,
		}},
		Async:        true,
		StageTimeout: 30 * ms,
	}
	open, err := Simulate(p, 64, false, 64)
	if err != nil {
		t.Fatal(err)
	}
	p.InflightWindow = 1
	windowed, err := Simulate(p, 64, false, 64)
	if err != nil {
		t.Fatal(err)
	}
	// Open: ~1 batch per 14ms (quorum service 10 + transfers 4).
	if !approx(open.Throughput, 1/0.014, 0.05) {
		t.Fatalf("open throughput = %v, want ~71/s", open.Throughput)
	}
	// Window=1: ~1 per 32ms (straggler deadline 30 + TransferIn 2).
	if !approx(windowed.Throughput, 1/0.032, 0.05) {
		t.Fatalf("window=1 throughput = %v, want ~31/s", windowed.Throughput)
	}
}

func TestInflightWindowWideEnoughIsFree(t *testing.T) {
	p := chain(10*ms, 30*ms, 10*ms)
	open, err := Simulate(p, 64, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.InflightWindow = 64 // wider than the stream: never binds
	wide, err := Simulate(p, 64, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if wide.Throughput != open.Throughput || wide.Latency != open.Latency {
		t.Fatalf("wide window changed the schedule: %+v vs %+v", wide, open)
	}
}

// stragglerProfile is the async 3-variant straggler stage from the window
// tests: the configuration where a too-tight credit window costs real
// throughput, so the adaptive law has something to recover.
func stragglerProfile() *Profile {
	return &Profile{
		Stages: []StageProfile{{
			Service:    []time.Duration{10 * ms, 10 * ms, 50 * ms},
			TransferIn: 2 * ms, TransferOut: 2 * ms,
			Output: true,
		}},
		Async:        true,
		StageTimeout: 30 * ms,
	}
}

func TestAdaptiveWindowRecoversFromStarvedStart(t *testing.T) {
	// Static window=1 serializes every gather behind the 30ms straggler
	// deadline. The adaptive run starts from the same starved window but
	// re-sizes it each epoch with the controller's Little's-law, so after
	// the first epoch the stream opens up and mean throughput over the run
	// must land strictly above the static schedule.
	static := stragglerProfile()
	static.InflightWindow = 1
	s, err := Simulate(static, 256, false, 64)
	if err != nil {
		t.Fatal(err)
	}
	adaptive := stragglerProfile()
	adaptive.InflightWindow = 1
	adaptive.AdaptiveWindow = true
	a, err := Simulate(adaptive, 256, false, 64)
	if err != nil {
		t.Fatal(err)
	}
	if a.Throughput <= s.Throughput*1.2 {
		t.Fatalf("adaptive window did not recover: %.1f/s vs static %.1f/s", a.Throughput, s.Throughput)
	}
}

func TestAdaptiveWindowIsDeterministic(t *testing.T) {
	run := func() Metrics {
		p := stragglerProfile()
		p.InflightWindow = 1
		p.AdaptiveWindow = true
		m, err := Simulate(p, 200, false, 64)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("two identical adaptive runs diverged: %+v vs %+v", a, b)
	}
}

func TestAdaptiveWindowRespectsDisabledWindow(t *testing.T) {
	// InflightWindow=0 means the deployment turned windowing off; the
	// adaptive flag must not impose one (same contract as the live
	// controller against Engine.InflightWindow()==0).
	off := stragglerProfile()
	base, err := Simulate(off, 128, false, 64)
	if err != nil {
		t.Fatal(err)
	}
	offAdaptive := stragglerProfile()
	offAdaptive.AdaptiveWindow = true
	got, err := Simulate(offAdaptive, 128, false, 64)
	if err != nil {
		t.Fatal(err)
	}
	if got != base {
		t.Fatalf("adaptive flag changed a window-off schedule: %+v vs %+v", got, base)
	}
}
