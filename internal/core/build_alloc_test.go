//go:build !race

package core

import (
	"runtime"
	"testing"

	"repro/internal/diversify"
)

// TestBuildBundleMemoryPin pins the offline build's memory on resnet-50 at
// the daemon defaults (scale 0.25, input 32, 5 partitions, the real-setup
// recipes). When the pin was set the build allocated 89.1 MiB in total and
// kept 23.2 MiB live after GC: 17.2 MiB of ciphertext plus the model graph.
// Keeping the plaintext variant graphs adds about 17 MiB live; an encoder
// that grows its output by doubling, or a seal that copies its ciphertext,
// adds 17 MiB or more of allocation. Each ceiling allows about 10% slack.
func TestBuildBundleMemoryPin(t *testing.T) {
	const (
		maxTotal = 98 << 20
		maxLive  = 26 << 20
	)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b, err := BuildBundle(OfflineConfig{
		ModelName:        "resnet-50",
		PartitionTargets: []int{5},
		Specs:            diversify.RealSetupSpecs(),
	})
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	total := after.TotalAlloc - before.TotalAlloc
	runtime.GC()
	runtime.ReadMemStats(&after)
	live := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	runtime.KeepAlive(b)
	t.Logf("BuildBundle allocated %.1f MiB, %.1f MiB live after GC", float64(total)/(1<<20), float64(live)/(1<<20))
	if total > maxTotal {
		t.Errorf("BuildBundle allocated %.1f MiB, ceiling %d MiB", float64(total)/(1<<20), maxTotal>>20)
	}
	if live > maxLive {
		t.Errorf("bundle keeps %.1f MiB live after GC, ceiling %d MiB", float64(live)/(1<<20), maxLive>>20)
	}
}
