// Package pipesim is a deterministic discrete-event simulator of MVTEE's
// partitioned multi-variant pipeline on a multicore TEE testbed.
//
// The paper's evaluation runs on dual 36-core Xeons with SGX, where pipeline
// stages execute on distinct cores; this repository's host may have far
// fewer cores, so wall-clock runs cannot exhibit the compute-communication
// overlap the paper measures. pipesim substitutes the missing hardware: the
// per-stage per-variant service times, checkpoint transfer costs and
// consistency-check costs are *calibrated from real executions* of this
// repository's runtimes (see Calibrate), and the monitor's scheduling
// semantics — hybrid slow/fast path, unanimous-sync vs majority-quorum-async
// checkpoints, FIFO variant servers, bounded in-flight depth — are replayed
// exactly. A TEEFactor scales the communication/crypto costs to model
// SGX-class enclave transition and secure-memory overheads.
package pipesim

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"repro/internal/control"
	"repro/internal/telemetry"
)

// Adaptive-window replay parameters, mirroring the live controller's
// Little's-law headroom with the epoch expressed in batches — the simulator
// has no wall clock. The window clamps are control.DefaultLimits.
const (
	adaptEveryBatches = 32
	adaptHeadroom     = 1.25
)

// StageProfile carries the calibrated costs of one pipeline stage.
//
// The monitor serves each stage with one checkpoint thread (as the live
// engine's stage worker does), so TransferIn, TransferOut and Check occupy a
// serial per-stage monitor resource: in pipelined execution, checkpoint
// handling for consecutive batches at the same stage cannot overlap, which
// is why encryption and checkpointing consume a larger share of pipelined
// performance (Figure 10).
type StageProfile struct {
	// Service is the compute time of each variant of this stage.
	Service []time.Duration
	// TransferIn is the monitor-side cost of dispatching this stage's
	// input checkpoint to all its variants (serialize + AES-GCM seal),
	// already scaled by TEEFactor.
	TransferIn time.Duration
	// TransferOut is the monitor-side cost of receiving and decrypting all
	// variants' results, already scaled by TEEFactor.
	TransferOut time.Duration
	// Check is the consistency-evaluation cost at this stage's checkpoint
	// (zero on the fast path), already scaled by TEEFactor.
	Check time.Duration
	// Deps lists the stages whose checkpoints feed this stage; empty means
	// the stage consumes the model input.
	Deps []int
	// Output marks stages whose checkpoint contributes to the model
	// output.
	Output bool
}

// Profile is a complete simulation model.
type Profile struct {
	Stages []StageProfile
	// Async enables majority-quorum forwarding (Figure 8).
	Async bool
	// Cores bounds simultaneously computing variants; 0 means unbounded
	// (the paper's testbed has more cores than variants in every
	// configuration). When the variant count exceeds Cores, every service
	// time is scaled by demand/Cores — a static processor-sharing
	// approximation of time-multiplexing, adequate for locating the knee
	// where replication outruns the machine.
	Cores int
	// StageTimeout is the straggler deadline per checkpoint (the engine's
	// EngineConfig.StageTimeout); zero disables it. A variant that has not
	// finished within the deadline of its dispatch is dropped from the
	// checkpoint: the gather completes at the deadline with the survivors,
	// and the straggler's server is assumed hot-replaced from the spare
	// pool (available again at the deadline). Single-variant stages are
	// unaffected — there is no quorum to fall back on.
	StageTimeout time.Duration
	// InflightWindow models the engine's per-stage credit budget
	// (EngineConfig.InflightWindow): batch b cannot be dispatched at a stage
	// until batch b−W's checkpoint gather has fully closed there — every
	// variant arrived or was pruned at the deadline, which in async mode is
	// later than the quorum forward point. This is what bounds a stage's
	// straggler backlog. Zero disables the window.
	InflightWindow int
	// AdaptiveWindow replays the control plane's inflight-window loop inside
	// the simulation: every adaptEveryBatches batches the effective window is
	// re-sized by the same exported law the live controller applies
	// (control.LittleWindow) from the simulated arrival rate and the p90
	// simulated gather latency, clamped like the controller's defaults.
	// InflightWindow is the starting window; zero (feature off) disables
	// adaptation too, mirroring the live controller's refusal to impose a
	// window on a deployment that turned windowing off.
	AdaptiveWindow bool
	// AdaptiveBatch replays the control plane's micro-batching loop inside
	// SimulateServe: every adaptEveryBatches flushed batches the front-end
	// window is re-sized by the same exported law the live controller applies
	// (control.BatchStep, slow-start memory included) from the simulated
	// flush-reason mix and mean batch fill. Off, SimulateServe runs the
	// batching window open-loop at its starting knobs.
	AdaptiveBatch bool
	// Metrics, when non-nil, receives the simulated run under the same
	// series names the live engine emits (mvtee_engine_batches_total,
	// mvtee_engine_batch_latency_ns, per-stage mvtee_engine_gather_ns), so
	// simulated and measured runs can be compared on one dashboard.
	Metrics *telemetry.Registry
}

// Metrics mirrors the bench package's measurement summary.
type Metrics struct {
	Throughput float64 // batches per second
	Latency    time.Duration
}

// Validate checks profile consistency.
func (p *Profile) Validate() error {
	if len(p.Stages) == 0 {
		return fmt.Errorf("pipesim: empty profile")
	}
	for i, s := range p.Stages {
		if len(s.Service) == 0 {
			return fmt.Errorf("pipesim: stage %d has no variants", i)
		}
		for _, d := range s.Deps {
			if d < 0 || d >= i {
				return fmt.Errorf("pipesim: stage %d dep %d not topologically earlier", i, d)
			}
		}
	}
	return nil
}

// forwardTime computes when a stage's checkpoint releases downstream given
// its variants' finish times: the single-variant fast path forwards on
// completion; sync slow path waits for all variants plus the check; async
// slow path forwards at the majority quorum plus the check. A non-zero
// cutoff is the absolute straggler deadline: finishes past it are dropped
// from the checkpoint, which completes no later than the cutoff itself
// (the expiry tick prunes stragglers and votes with the survivors).
func forwardTime(fins []time.Duration, checkCost time.Duration, async bool, cutoff time.Duration) time.Duration {
	if len(fins) == 1 {
		return fins[0]
	}
	sorted := append([]time.Duration(nil), fins...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var release time.Duration
	if async {
		quorum := len(sorted)/2 + 1 // strict majority
		release = sorted[quorum-1]
	} else {
		release = sorted[len(sorted)-1]
	}
	if cutoff > 0 && release > cutoff {
		release = cutoff
	}
	return release + checkCost
}

// lastFinish is when every variant of the stage has finished or — with a
// straggler deadline — been pruned at the cutoff (the bound that still
// gates output checkpoints in async mode).
func lastFinish(fins []time.Duration, cutoff time.Duration) time.Duration {
	m := time.Duration(0)
	for _, f := range fins {
		if cutoff > 0 && f > cutoff {
			f = cutoff
		}
		if f > m {
			m = f
		}
	}
	return m
}

// Simulate runs batches through the profile. sequential=true models the
// paper's sequential execution (each batch completes all stages before the
// next is admitted); otherwise batches stream with inFlight pipeline depth
// (0 means 2×stages, the engine default).
func Simulate(p *Profile, batches int, sequential bool, inFlight int) (Metrics, error) {
	if err := p.Validate(); err != nil {
		return Metrics{}, err
	}
	if batches <= 0 {
		return Metrics{}, fmt.Errorf("pipesim: need at least one batch")
	}
	if inFlight <= 0 {
		inFlight = 2 * len(p.Stages)
	}

	nStages := len(p.Stages)

	// Optional telemetry mirror: same series names as the live engine, fed
	// with simulated timestamps.
	var (
		mBatches  *telemetry.Counter
		mBatchNs  *telemetry.Histogram
		mGatherNs []*telemetry.Histogram
	)
	if p.Metrics != nil {
		mBatches = p.Metrics.Counter(telemetry.MetricEngineBatches)
		mBatchNs = p.Metrics.Histogram(telemetry.MetricEngineBatchNs)
		mGatherNs = make([]*telemetry.Histogram, nStages)
		for s := 0; s < nStages; s++ {
			mGatherNs[s] = p.Metrics.Histogram(telemetry.MetricEngineGatherNs,
				telemetry.L("stage", strconv.Itoa(s)))
		}
	}

	// Static processor-sharing contention when variant demand exceeds the
	// core budget.
	contention := 1.0
	if p.Cores > 0 {
		demand := 0
		for _, s := range p.Stages {
			demand += len(s.Service)
		}
		if demand > p.Cores {
			contention = float64(demand) / float64(p.Cores)
		}
	}
	svc := func(s, v int) time.Duration {
		return time.Duration(float64(p.Stages[s].Service[v]) * contention)
	}

	// Adaptive-window state: the effective credit budget starts at the
	// configured window and is re-sized at epoch boundaries from the same
	// pure law the live controller runs.
	effWindow := p.InflightWindow
	var gatherMax []time.Duration // per-batch max gather duration across stages
	if p.AdaptiveWindow && effWindow > 0 {
		gatherMax = make([]time.Duration, batches)
	}

	serverFree := make([][]time.Duration, nStages)
	for s := range serverFree {
		serverFree[s] = make([]time.Duration, len(p.Stages[s].Service))
	}
	// monitorFree models the per-stage checkpoint thread: transfer and check
	// work for consecutive batches at one stage serializes here.
	monitorFree := make([]time.Duration, nStages)
	complete := make([]time.Duration, batches)
	submit := make([]time.Duration, batches)
	forward := make([][]time.Duration, batches)
	// gatherClose is when a batch's checkpoint gather fully resolves at a
	// stage: the later of the forward point and the last variant's arrival
	// (or pruning). The credit window refunds here, not at forward time — in
	// async mode a forwarded gather still holds its credit until the final
	// straggler lands.
	gatherClose := make([][]time.Duration, batches)

	for b := 0; b < batches; b++ {
		switch {
		case b == 0:
			submit[b] = 0
		case sequential:
			submit[b] = complete[b-1]
		case b >= inFlight:
			submit[b] = complete[b-inFlight]
		default:
			submit[b] = submit[b-1] // streamed immediately
		}
		forward[b] = make([]time.Duration, nStages)
		gatherClose[b] = make([]time.Duration, nStages)

		var batchEnd time.Duration
		for s := 0; s < nStages; s++ {
			sp := &p.Stages[s]
			ready := submit[b]
			for _, d := range sp.Deps {
				if forward[b][d] > ready {
					ready = forward[b][d]
				}
			}
			// Per-stage credit window: dispatch of batch b waits until batch
			// b−W's gather closed at this stage (last variant arrived or was
			// pruned) and released its credit.
			if effWindow > 0 && b >= effWindow {
				if w := gatherClose[b-effWindow][s]; w > ready {
					ready = w
				}
			}
			// Input dispatch occupies the stage's monitor thread.
			xferStart := max(ready, monitorFree[s])
			dispatched := xferStart + sp.TransferIn
			monitorFree[s] = dispatched

			// Straggler deadline for this dispatch (single-variant stages
			// have no quorum to degrade to, so the deadline does not apply).
			var cutoff time.Duration
			if p.StageTimeout > 0 && len(sp.Service) > 1 {
				cutoff = dispatched + p.StageTimeout
			}

			fins := make([]time.Duration, len(sp.Service))
			for v := range sp.Service {
				start := dispatched
				if serverFree[s][v] > start {
					start = serverFree[s][v]
				}
				fins[v] = start + svc(s, v)
				serverFree[s][v] = fins[v]
				if cutoff > 0 && fins[v] > cutoff {
					// Timed out: the variant is dropped at the deadline and
					// its slot hot-replaced from the spare pool, so the
					// server is serviceable again at the cutoff.
					serverFree[s][v] = cutoff
				}
			}

			// Result collection + consistency evaluation occupy the monitor
			// thread again; async releases downstream at the majority
			// quorum, sync at the last variant.
			release := forwardTime(fins, 0, p.Async, cutoff)
			postStart := max(release, monitorFree[s])
			postDone := postStart + sp.TransferOut + sp.Check
			monitorFree[s] = postDone
			forward[b][s] = postDone
			gatherClose[b][s] = max(lastFinish(fins, cutoff), postDone)
			if mGatherNs != nil {
				mGatherNs[s].Observe(int64(gatherClose[b][s] - dispatched))
			}
			if gatherMax != nil {
				if d := gatherClose[b][s] - dispatched; d > gatherMax[b] {
					gatherMax[b] = d
				}
			}

			if sp.Output {
				// Output checkpoints must be fully validated before release
				// to the user, even in async mode.
				end := max(lastFinish(fins, cutoff), postDone-sp.TransferOut-sp.Check)
				end += sp.TransferOut + sp.Check
				if end > batchEnd {
					batchEnd = end
				}
			}
		}
		if batchEnd == 0 { // no explicit output stages: use the last stage
			batchEnd = forward[b][nStages-1]
		}
		complete[b] = batchEnd
		if mBatches != nil {
			mBatches.Inc()
			mBatchNs.Observe(int64(complete[b] - submit[b]))
		}
		// Epoch boundary: re-size the effective window with the controller's
		// exported law over the last epoch of simulated signals.
		if gatherMax != nil && (b+1)%adaptEveryBatches == 0 {
			lo := b + 1 - adaptEveryBatches
			// Epoch span: previous epoch's last completion to this one's —
			// submit times are useless here, a streamed run submits its whole
			// window at t=0.
			start := submit[lo]
			if lo > 0 {
				start = complete[lo-1]
			}
			if elapsed := complete[b] - start; elapsed > 0 {
				lambda := float64(adaptEveryBatches) / elapsed.Seconds()
				durs := append([]time.Duration(nil), gatherMax[lo:b+1]...)
				sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
				p90 := durs[(len(durs)*9+9)/10-1]
				if w := control.LittleWindow(lambda, p90, adaptHeadroom); w > 0 {
					lim := control.DefaultLimits()
					effWindow = min(max(w, lim.MinWindow), lim.MaxWindow)
				}
			}
		}
	}

	total := complete[batches-1] - submit[0]
	if total <= 0 {
		total = time.Nanosecond
	}
	var m Metrics
	m.Throughput = float64(batches) / total.Seconds()
	if sequential {
		var sum time.Duration
		for b := range complete {
			sum += complete[b] - submit[b]
		}
		m.Latency = sum / time.Duration(batches)
	} else {
		m.Latency = total / time.Duration(batches)
	}
	return m, nil
}

// SimulateBaseline models the unpartitioned original model: one server, one
// stage, no transfers or checks.
func SimulateBaseline(service time.Duration, batches int) Metrics {
	total := service * time.Duration(batches)
	return Metrics{
		Throughput: float64(batches) / total.Seconds(),
		Latency:    service,
	}
}
