package transcript

import (
	"sync"
	"testing"

	"repro/internal/check"
	"repro/internal/telemetry"
)

// TestPostRacingClose posts from several goroutines while Close runs. No
// post may panic on the closed channel, Close must return, and a post after
// Close must not reach the log.
func TestPostRacingClose(t *testing.T) {
	for round := 0; round < 50; round++ {
		rec := newRecorder(Config{Metrics: telemetry.NewRegistry()}, 8)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for i := 0; i < 200; i++ {
					b := uint64(g*1000 + i)
					rec.Begin(b, b, nil)
					rec.Checkpoint(b, 0, check.Digest{})
					rec.Deliver(b, nil, 0, "")
				}
			}(g)
		}
		close(start)
		rec.Close()
		wg.Wait()
		rec.Close() // idempotent
		size := rec.Size()
		rec.Deliver(1, nil, 0, "")
		if rec.Size() != size {
			t.Fatal("a post after Close reached the log")
		}
	}
}
