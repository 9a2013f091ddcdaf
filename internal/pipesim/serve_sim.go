package pipesim

import (
	"fmt"
	"time"

	"repro/internal/control"
)

// ServeMetrics is SimulateServe's summary: request-level performance plus the
// knob trajectory the replayed batch loop steered through, one entry per
// control epoch (index 0 is the starting window). With Profile.AdaptiveBatch
// off the trajectory is constant — the open-loop baseline to diff against.
type ServeMetrics struct {
	Throughput float64       // requests per second
	Latency    time.Duration // mean request latency (arrival -> batch completion)
	Requests   uint64        // requests served across all flushed batches
	FlushSize  uint64        // batches flushed because they reached MaxBatch
	FlushTimer uint64        // batches flushed by the MaxDelay deadline
	Knobs      []control.BatchKnobs
}

// SimulateServe runs a closed-loop serving simulation over the profile:
// `clients` zero-think-time clients each hold one outstanding request; the
// front door collects arrivals into micro-batches (flush on MaxBatch fill or
// on the MaxDelay deadline after the batch's first arrival, exactly the live
// scheduler's rule), and a serial engine executes one batch at a time with
// the profile's sequential pipeline latency. Every request's completion
// re-arrives its client, which is what couples the batching window to the
// offered concurrency — the regime where the live controller's overshoot
// state (MaxBatch grown past the client count, every flush stalling on the
// deadline) appears and BatchStep's slow-start memory earns its keep.
//
// With p.AdaptiveBatch, control.BatchStep re-sizes the knobs every
// adaptEveryBatches flushes from that epoch's flush mix; the returned
// trajectory replays deterministically because the whole simulation is a pure
// function of (profile, clients, batches, starting knobs).
func SimulateServe(p *Profile, clients, batches int, knobs control.BatchKnobs) (ServeMetrics, error) {
	if err := p.Validate(); err != nil {
		return ServeMetrics{}, err
	}
	if clients <= 0 || batches <= 0 {
		return ServeMetrics{}, fmt.Errorf("pipesim: need at least one client and one batch")
	}
	// The live controller's clamps, so the replayed law moves inside the
	// same box.
	lim := control.DefaultLimits()
	if knobs.MaxBatch <= 0 {
		knobs.MaxBatch = lim.MinBatch
	}
	if knobs.MaxDelay <= 0 {
		knobs.MaxDelay = lim.MinDelay
	}

	// One batch's engine latency: the sequential pipeline traversal. Stage
	// costs in the profile are per-batch, so engine latency is fill-invariant
	// — the simulator's analogue of the amortization that makes batching pay.
	one, err := Simulate(p, 1, true, 0)
	if err != nil {
		return ServeMetrics{}, err
	}
	engineLat := one.Latency

	// Future arrivals, sorted ascending. Initial arrivals are the clients'
	// first requests at t=0; re-arrivals are batch completions, which are
	// monotone non-decreasing (serial engine), so appending keeps the queue
	// sorted — no heap needed.
	arrivals := make([]time.Duration, clients)

	var (
		m          ServeMetrics
		st         control.BatchState
		engineFree time.Duration
		latencySum time.Duration
		served     int
		lastDone   time.Duration
		// Epoch deltas for the replayed law.
		epSize, epTimer uint64
		epFill          int
	)
	m.Knobs = append(m.Knobs, knobs)

	for flushed := 0; flushed < batches; flushed++ {
		t0 := arrivals[0]
		deadline := t0 + knobs.MaxDelay
		n := 1
		for n < len(arrivals) && n < knobs.MaxBatch && arrivals[n] <= deadline {
			n++
		}
		var flushAt time.Duration
		if n == knobs.MaxBatch {
			flushAt = arrivals[n-1] // filled: flush when the last member lands
			m.FlushSize++
			epSize++
		} else {
			flushAt = deadline // deadline fired first
			m.FlushTimer++
			epTimer++
		}
		done := max(flushAt, engineFree) + engineLat
		engineFree = done
		lastDone = done
		for i := 0; i < n; i++ {
			latencySum += done - arrivals[i]
		}
		served += n
		epFill += n
		// Members re-arrive at completion; the queue stays sorted because
		// completions never decrease.
		arrivals = arrivals[n:]
		for i := 0; i < n; i++ {
			arrivals = append(arrivals, done)
		}

		if p.AdaptiveBatch && (flushed+1)%adaptEveryBatches == 0 {
			sig := control.BatchSignals{
				FlushSize:  epSize,
				FlushTimer: epTimer,
				MeanFill:   float64(epFill) / float64(epSize+epTimer),
			}
			epSize, epTimer, epFill = 0, 0, 0
			knobs = control.BatchStep(sig, knobs, lim, &st)
			m.Knobs = append(m.Knobs, knobs)
		}
	}

	if lastDone <= 0 {
		lastDone = time.Nanosecond
	}
	m.Throughput = float64(served) / lastDone.Seconds()
	m.Latency = latencySum / time.Duration(served)
	m.Requests = uint64(served)
	return m, nil
}
