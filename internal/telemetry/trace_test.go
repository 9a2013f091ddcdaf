package telemetry

import (
	"sync"
	"testing"
)

func TestTracerRingWraps(t *testing.T) {
	tr := NewTracer(4)
	for i := 1; i <= 6; i++ {
		tr.Record(Span{Trace: uint64(i), Batch: uint64(i), Name: "s", Stage: -1})
	}
	got := tr.Snapshot()
	if len(got) != 4 {
		t.Fatalf("len = %d, want 4", len(got))
	}
	for i, s := range got {
		if want := uint64(i + 3); s.Trace != want {
			t.Fatalf("span %d trace = %d, want %d (oldest-first)", i, s.Trace, want)
		}
	}
	if tr.Total() != 6 {
		t.Fatalf("total = %d, want 6", tr.Total())
	}
}

func TestTracerDropsZeroTrace(t *testing.T) {
	tr := NewTracer(4)
	tr.Record(Span{Trace: 0, Name: "untraced"})
	if len(tr.Snapshot()) != 0 {
		t.Fatal("zero trace IDs must not be recorded")
	}
}

func TestSpansFor(t *testing.T) {
	tr := NewTracer(8)
	tr.Record(Span{Trace: 1, Name: "a"})
	tr.Record(Span{Trace: 2, Name: "b"})
	tr.Record(Span{Trace: 1, Name: "c"})
	got := tr.SpansFor(1)
	if len(got) != 2 || got[0].Name != "a" || got[1].Name != "c" {
		t.Fatalf("SpansFor(1) = %+v", got)
	}
}

func TestNewTraceIDUnique(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if id == 0 {
			t.Fatal("trace ID must be nonzero when enabled")
		}
		if seen[id] {
			t.Fatalf("duplicate trace ID %d", id)
		}
		seen[id] = true
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr.Record(Span{Trace: uint64(g + 1), Batch: uint64(i), Name: "s"})
			}
		}(g)
	}
	wg.Wait()
	if tr.Total() != 8*500 {
		t.Fatalf("total = %d, want %d", tr.Total(), 8*500)
	}
	if len(tr.Snapshot()) != 128 {
		t.Fatal("ring should be full")
	}
}

func TestTracerRecordAllocFree(t *testing.T) {
	tr := NewTracer(1024)
	s := Span{Trace: 7, Batch: 1, Name: "dispatch", Stage: 0, Start: 1, End: 2}
	allocs := testing.AllocsPerRun(1000, func() { tr.Record(s) })
	if allocs != 0 {
		t.Fatalf("Record allocated %v/op, want 0", allocs)
	}
}

func BenchmarkTracerRecord(b *testing.B) {
	tr := NewTracer(8192)
	s := Span{Trace: 7, Batch: 1, Name: "dispatch", Stage: 0, Start: 1, End: 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Record(s)
	}
}
