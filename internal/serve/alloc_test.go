//go:build !race

package serve

import (
	"testing"
	"time"

	"repro/internal/tensor"
)

// TestSubmitAllocsPin pins admission's allocations on a one-input declared
// interface: the queued request and its response channel (two objects: a
// buffered channel of a pointer-bearing type has its buffer apart), nothing
// per input. The engine is wedged in Submit for the whole measurement, so the scheduler
// goroutine stays parked and every allocation counted is Submit's own.
func TestSubmitAllocsPin(t *testing.T) {
	const runs = 1000
	fe := newFakeEngine()
	fe.block = make(chan struct{})
	defer close(fe.block)
	s := newTestServer(t, fe, Config{MaxBatch: 1, MaxDelay: time.Millisecond,
		TenantQueue: 2 * runs, GlobalQueue: 2 * runs,
		ItemShapes: map[string][]int{"x": {1, 4}}})
	req := Request{Tenant: "t", Inputs: map[string]*tensor.Tensor{"x": tensor.New(1, 4)}}
	// Wedge the scheduler in the engine before measuring.
	if _, err := s.Submit(req); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.flushing
	})
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := s.Submit(req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Fatalf("Submit allocates %v times per request, want ≤ 3 (request + response channel)", allocs)
	}
}
