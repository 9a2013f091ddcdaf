package telemetry

import (
	crand "crypto/rand"
	"encoding/binary"
	"sync"
	"sync/atomic"
)

// Span is one timed hop of a batch's journey through the pipeline. Trace is
// the batch-scoped TraceID minted at Submit and carried through the wire
// header; Batch is the engine-assigned batch ID; Stage is -1 for spans that
// are not stage-scoped (batch, variant-compute on the variant side); Variant
// is empty for monitor-side aggregate spans; Replica names the cluster node
// that recorded the span — set by the router when merging a replica's
// harvested spans into its own ring, empty for spans recorded in-process.
// Times are UnixNano so the ring holds no pointers.
type Span struct {
	Trace   uint64 `json:"trace"`
	Batch   uint64 `json:"batch"`
	Name    string `json:"name"`
	Stage   int    `json:"stage"`
	Variant string `json:"variant,omitempty"`
	Replica string `json:"replica,omitempty"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

// Tracer is a fixed-capacity span ring. Record is a mutex-guarded copy into
// pre-allocated storage — no allocation per span — and a no-op for zero trace
// IDs (the disabled sentinel) so untraced batches cost one branch.
type Tracer struct {
	mu   sync.Mutex
	ring ring[Span]
}

// NewTracer returns a tracer retaining the most recent capacity spans.
func NewTracer(capacity int) *Tracer {
	return &Tracer{ring: newRing[Span](capacity)}
}

// DefaultTracer is the process-wide span ring, served by /trace. In-process
// variants (the facade's default deployment) record their compute spans here
// too, so a single snapshot sees the full end-to-end timeline.
var DefaultTracer = NewTracer(8192)

// Record stores one finished span. Nil tracers, zero trace IDs, and disabled
// telemetry all drop the span without touching the ring.
func (t *Tracer) Record(s Span) {
	if t == nil || s.Trace == 0 || !Enabled() {
		return
	}
	t.mu.Lock()
	t.ring.push(s)
	t.mu.Unlock()
}

// Total returns the number of spans ever recorded (including evicted ones).
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.total
}

// Snapshot returns the retained spans, oldest first.
func (t *Tracer) Snapshot() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.snapshot()
}

// Dropped returns how many recorded spans have been evicted from the ring —
// the tracer's loss count, surfaced as a metric so operators can tell when
// -trace-ring is undersized for the traffic.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.total - uint64(t.ring.n)
}

// SpansFor returns the retained spans with the given trace ID, oldest first.
func (t *Tracer) SpansFor(trace uint64) []Span {
	all := t.Snapshot()
	out := all[:0]
	for _, s := range all {
		if s.Trace == trace {
			out = append(out, s)
		}
	}
	return out
}

// SpansForRecent returns up to maxSpans retained spans with the given trace
// ID, scanning only the most recent maxScan ring entries (non-positive scans
// everything). A just-completed batch's spans live at the young end of the
// ring, so replica-side span harvesting — which runs once per delivered batch
// — pays a cost bounded by the scan window, not the ring capacity. Results
// are oldest first, like SpansFor.
func (t *Tracer) SpansForRecent(trace uint64, maxScan, maxSpans int) []Span {
	if t == nil || trace == 0 || maxSpans == 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.ring.n
	if maxScan > 0 && n > maxScan {
		n = maxScan
	}
	var out []Span
	for i := 0; i < n; i++ {
		if s := t.ring.newest(i); s.Trace == trace {
			out = append(out, *s)
			if maxSpans > 0 && len(out) == maxSpans {
				break
			}
		}
	}
	// The scan walked newest-to-oldest; flip to the canonical order.
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// traceBase is a random per-process base so trace IDs from different monitor
// processes don't collide in merged logs; traceSeq disambiguates within a
// process.
var (
	traceBase uint64
	traceSeq  atomic.Uint64
	traceOnce sync.Once
)

// NewTraceID mints a process-unique, never-zero trace ID, or 0 when telemetry
// is disabled (the zero ID disables all downstream span recording for the
// batch, so disabled runs carry no tracing cost past this one branch).
func NewTraceID() uint64 {
	if !Enabled() {
		return 0
	}
	traceOnce.Do(func() {
		var b [8]byte
		if _, err := crand.Read(b[:]); err == nil {
			traceBase = binary.LittleEndian.Uint64(b[:])
		}
	})
	id := traceBase + traceSeq.Add(1)
	if id == 0 {
		id = traceSeq.Add(1)
	}
	return id
}
