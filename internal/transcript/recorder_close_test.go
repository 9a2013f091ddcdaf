package transcript

import (
	"sync"
	"testing"

	"repro/internal/check"
	"repro/internal/telemetry"
)

// TestPostRacingClose records from several goroutines while Close runs. No
// Record may panic on the closed channel, Close must return, and a Record
// after Close must not reach the log.
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
					rec.Record(Batch{Trace: b, ID: b, Checkpoints: []Checkpoint{{}}})
				}
			}(g)
		}
		close(start)
		rec.Close()
		wg.Wait()
		rec.Close() // idempotent
		size := rec.Size()
		rec.Record(Batch{ID: 1})
		if rec.Size() != size {
			t.Fatal("a post after Close reached the log")
		}
	}
}

// TestRecorderGapNeverPartial bursts finished batches at a one-slot
// channel. Backpressure must cost whole batches: every appended leaf has its
// input digest, every checkpoint and both votes, and each post is either a
// leaf or a drop.
func TestRecorderGapNeverPartial(t *testing.T) {
	const posters, each = 4, 300
	rec := newRecorder(Config{SampleEvery: -1, Metrics: telemetry.NewRegistry()}, 1)
	var sum check.Digest
	sum[0] = 1
	var wg sync.WaitGroup
	for g := 0; g < posters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				id := uint64(g*each + i + 1)
				rec.Record(Batch{
					Trace: id, ID: id, Inputs: testInputs(float32(id)), Outputs: testInputs(-float32(id)),
					Checkpoints: []Checkpoint{{Digest: sum}, {Tensors: testInputs(float32(id))}},
					Votes:       []Vote{{Replica: "b", Sum: sum, Agree: true}, {Replica: "c"}},
				})
			}
		}(g)
	}
	wg.Wait()
	rec.Close()
	size, dropped := rec.Size(), rec.Dropped()
	if size+dropped != posters*each {
		t.Fatalf("size %d + dropped %d != %d posts", size, dropped, posters*each)
	}
	if dropped == 0 {
		// A one-slot channel against a worker that hashes three tensor
		// maps per leaf cannot keep up with four tight posting loops.
		t.Fatal("the burst dropped nothing; the test exercised no backpressure")
	}
	seen := make(map[uint64]bool, size)
	for i := uint64(0); i < size; i++ {
		leaf, _, err := rec.LeafAt(i)
		if err != nil {
			t.Fatal(err)
		}
		if seen[leaf.Batch] || leaf.Trace != leaf.Batch {
			t.Fatalf("leaf %d: batch %d trace %d duplicated or mismatched", i, leaf.Batch, leaf.Trace)
		}
		seen[leaf.Batch] = true
		in := testInputs(float32(leaf.Batch))
		if leaf.Input != check.DigestOf(in) || leaf.Output != check.DigestOf(testInputs(-float32(leaf.Batch))) {
			t.Fatalf("leaf %d (batch %d): input or output digest missing or wrong", i, leaf.Batch)
		}
		if len(leaf.Checkpoints) != 2 || leaf.Checkpoints[0] != sum || leaf.Checkpoints[1] != check.DigestOf(in) {
			t.Fatalf("leaf %d (batch %d): partial checkpoints %v", i, leaf.Batch, leaf.Checkpoints)
		}
		if len(leaf.Votes) != 2 || !leaf.Votes[0].Agree || leaf.Votes[1].Replica != "c" {
			t.Fatalf("leaf %d (batch %d): partial votes %+v", i, leaf.Batch, leaf.Votes)
		}
	}
}
