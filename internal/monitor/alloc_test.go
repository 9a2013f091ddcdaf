//go:build !race

package monitor

import "testing"

// TestWarmAllocsPin pins the warm hot path's allocations: a fully
// instrumented dispatch→gather→deliver cycle through one variant allocated
// 78 times per Infer when this pin was set. All telemetry recording goes
// through pre-registered atomics, a preallocated span ring and a
// preallocated event ring, so instrumentation adds nothing; the pin allows
// a slack of 2 for runtime noise (background sweeps, channel growth). The
// race build drops pooled buffers at random, so the pin holds only without
// it.
func TestWarmAllocsPin(t *testing.T) {
	const pin = 78 + 2
	cfg, _, _ := traceEngineConfig(t, 1)
	e := buildEngine(t, cfg)
	in := input(3)
	for i := 0; i < 5; i++ { // warm pools and codec buffers
		if _, err := e.Infer(in); err != nil {
			t.Fatal(err)
		}
	}
	best := -1.0
	for trial := 0; trial < 3; trial++ {
		got := testing.AllocsPerRun(20, func() {
			if _, err := e.Infer(in); err != nil {
				t.Fatal(err)
			}
		})
		if best < 0 || got < best {
			best = got
		}
	}
	t.Logf("warm Infer allocs/op: %.1f (pin %d)", best, pin)
	if best > pin {
		t.Fatalf("warm Infer allocates %.1f times per op, pin is %d", best, pin)
	}
}
