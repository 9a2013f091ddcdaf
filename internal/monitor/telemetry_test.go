package monitor

import (
	"testing"

	"repro/internal/telemetry"
)

// traceEngineConfig wires a private registry and tracer so assertions are
// isolated from other tests sharing the process defaults.
func traceEngineConfig(t *testing.T, nVariants int) (EngineConfig, *telemetry.Registry, *telemetry.Tracer) {
	t.Helper()
	reg := telemetry.NewRegistry()
	tr := telemetry.NewTracer(1024)
	s0 := make([]*Handle, nVariants)
	s1 := make([]*Handle, nVariants)
	for i := 0; i < nVariants; i++ {
		v0 := &fakeVariant{id: "s0", behave: doubler(0)}
		v1 := &fakeVariant{id: "s1", behave: incrementer()}
		s0[i] = v0.start(t, 0)
		s1[i] = v1.start(t, 1)
	}
	cfg := twoStageConfig(s0, s1)
	cfg.Metrics = reg
	cfg.Tracer = tr
	return cfg, reg, tr
}

// TestBatchTracePropagation runs batches through a two-stage pipeline and
// checks the tentpole tracing invariant: every span recorded for one batch —
// dispatch, per-variant send, gather, vote, forward, and the enclosing batch
// span — carries the same nonzero TraceID, and distinct batches carry
// distinct TraceIDs.
func TestBatchTracePropagation(t *testing.T) {
	cfg, reg, tr := traceEngineConfig(t, 3)
	e := buildEngine(t, cfg)

	const batches = 3
	for i := 0; i < batches; i++ {
		if _, err := e.Infer(input(float32(i + 1))); err != nil {
			t.Fatal(err)
		}
	}

	spans := tr.Snapshot()
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	traceOf := make(map[uint64]uint64) // batch ID -> trace
	names := make(map[uint64]map[string]int)
	for _, s := range spans {
		if s.Trace == 0 {
			t.Fatalf("span %+v has zero trace", s)
		}
		if prev, ok := traceOf[s.Batch]; ok && prev != s.Trace {
			t.Fatalf("batch %d spans carry two traces: %d and %d", s.Batch, prev, s.Trace)
		}
		traceOf[s.Batch] = s.Trace
		if names[s.Batch] == nil {
			names[s.Batch] = make(map[string]int)
		}
		names[s.Batch][s.Name]++
	}
	if len(traceOf) != batches {
		t.Fatalf("spans cover %d batches, want %d", len(traceOf), batches)
	}
	seen := make(map[uint64]bool)
	for b, tr := range traceOf {
		if seen[tr] {
			t.Fatalf("trace %d reused across batches", tr)
		}
		seen[tr] = true
		// Two stages, three variants: each batch must show the full span
		// vocabulary, with one send per variant per stage.
		for name, want := range map[string]int{
			"batch": 1, "dispatch": 2, "send": 6, "gather": 2, "vote": 2, "forward": 2,
		} {
			if got := names[b][name]; got != want {
				t.Errorf("batch %d: %d %q spans, want %d (have %v)", b, got, name, want, names[b])
			}
		}
	}

	// The metrics side of the same run: the batch counter and latency
	// histogram must count exactly the batches executed.
	var counted, histCount uint64
	for _, m := range reg.Snapshot() {
		switch m.Name {
		case telemetry.MetricEngineBatches:
			counted = uint64(m.Value)
		case telemetry.MetricEngineBatchNs:
			histCount = m.Count
		}
	}
	if counted != batches || histCount != batches {
		t.Fatalf("batches counter = %d, latency count = %d, want %d", counted, histCount, batches)
	}
}
