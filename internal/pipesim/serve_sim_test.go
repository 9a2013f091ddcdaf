package pipesim

import (
	"testing"
	"time"

	"repro/internal/control"
)

// TestAdaptiveBatchReplaysOvershootDiscovery drives the replayed batch loop
// closed-loop against 8 zero-think-time clients starting from MaxBatch=4 and
// asserts the exact knob trajectory the live controller's slow-start law
// produces: grow 4→8 (full size flushes), probe 8→16, discover the overshoot
// (16 exceeds the offered concurrency, every flush stalls on the deadline),
// revert to 8 and learn it as a ceiling, then hold. The whole run is a pure
// function of its inputs, so a second run must reproduce it bit for bit.
func TestAdaptiveBatchReplaysOvershootDiscovery(t *testing.T) {
	p := &Profile{
		Stages:        []StageProfile{{Service: []time.Duration{100 * time.Microsecond}}},
		AdaptiveBatch: true,
	}
	const clients, epochs = 8, 8
	batches := epochs * adaptEveryBatches
	start := control.BatchKnobs{MaxBatch: 4, MaxDelay: 2 * time.Millisecond}

	m, err := SimulateServe(p, clients, batches, start)
	if err != nil {
		t.Fatal(err)
	}
	wantBatch := []int{4, 8, 16, 8, 8, 8, 8, 8, 8} // start + one entry per epoch
	if len(m.Knobs) != len(wantBatch) {
		t.Fatalf("trajectory has %d entries, want %d: %+v", len(m.Knobs), len(wantBatch), m.Knobs)
	}
	for i, k := range m.Knobs {
		if k.MaxBatch != wantBatch[i] {
			t.Fatalf("epoch %d MaxBatch %d, want %d (trajectory %+v)", i, k.MaxBatch, wantBatch[i], m.Knobs)
		}
		if k.MaxDelay != start.MaxDelay {
			t.Fatalf("epoch %d moved MaxDelay to %v; this load never justifies a delay move", i, k.MaxDelay)
		}
	}
	// The overshoot epoch is the only one that stalls on the deadline.
	if m.FlushTimer == 0 || m.FlushSize == 0 {
		t.Fatalf("flush mix size=%d timer=%d: expected both regimes in this trajectory", m.FlushSize, m.FlushTimer)
	}

	// Deterministic replay: same inputs, same everything.
	m2, err := SimulateServe(p, clients, batches, start)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Throughput != m.Throughput || m2.Latency != m.Latency ||
		m2.FlushSize != m.FlushSize || m2.FlushTimer != m.FlushTimer {
		t.Fatalf("replay diverged: %+v vs %+v", m2, m)
	}
	for i := range m.Knobs {
		if m2.Knobs[i] != m.Knobs[i] {
			t.Fatalf("replay knob trajectory diverged at %d: %+v vs %+v", i, m2.Knobs, m.Knobs)
		}
	}

	// Open loop holds the starting knobs: its batches never fill past the
	// static window, while the adaptive loop converges its fill toward the
	// offered concurrency (8 clients) — the thing the batch loop is for.
	p.AdaptiveBatch = false
	open, err := SimulateServe(p, clients, batches, start)
	if err != nil {
		t.Fatal(err)
	}
	if len(open.Knobs) != 1 {
		t.Fatalf("open-loop trajectory %+v, want the starting knobs only", open.Knobs)
	}
	openFill := float64(open.Requests) / float64(open.FlushSize+open.FlushTimer)
	adaptFill := float64(m.Requests) / float64(m.FlushSize+m.FlushTimer)
	if openFill != float64(start.MaxBatch) {
		t.Fatalf("open-loop mean fill %.1f, want pinned at the static window %d", openFill, start.MaxBatch)
	}
	if adaptFill <= openFill {
		t.Fatalf("adaptive mean fill %.1f did not beat open-loop %.1f", adaptFill, openFill)
	}
}
