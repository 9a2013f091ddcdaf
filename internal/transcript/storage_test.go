package transcript

import (
	"errors"
	"io"
	"math/bits"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// feed appends n leaves with trace IDs first+1 .. first+n, keeping the
// recorder's backlog well under its channel capacity so nothing is dropped,
// and waits until all of them are in the log.
func feed(t testing.TB, rec *Recorder, first, n uint64) {
	t.Helper()
	for i := first; i < first+n; i++ {
		for i-rec.Size() >= 512 {
			time.Sleep(100 * time.Microsecond)
		}
		rec.Record(Batch{Trace: i + 1, ID: i + 1, Replica: "replica-a"})
	}
	deadline := time.Now().Add(30 * time.Second)
	for rec.Size() < first+n {
		if time.Now().After(deadline) {
			t.Fatalf("recorder holds %d leaves, want %d", rec.Size(), first+n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestProofsDoNotTakeAppendLock holds the recorder's lock and requires an
// inclusion and a consistency proof against the published head, and a leaf
// lookup, to finish anyway.
func TestProofsDoNotTakeAppendLock(t *testing.T) {
	rec := NewRecorder(Config{Metrics: telemetry.NewRegistry()})
	defer rec.Close()
	feed(t, rec, 0, 1000)
	sh, err := rec.SignedHead(true)
	if err != nil {
		t.Fatal(err)
	}
	size := sh.Head.Size

	rec.mu.Lock()
	defer rec.mu.Unlock()
	done := make(chan error, 1)
	go func() {
		p, err := rec.InclusionProof(3, size)
		if err == nil {
			var enc []byte
			if _, enc, err = rec.LeafAt(3); err == nil {
				err = VerifyInclusion(LeafHash(enc), p, sh.Head.Root)
			}
		}
		if err == nil {
			_, err = rec.ConsistencyProof(size/3, size)
		}
		if err == nil {
			_, _, _, err = rec.LeafByTrace(size - 10)
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("proofs waited for the recorder lock")
	}
}

// TestProofFloodDuringBurstDropsNothing runs proofs from four goroutines
// while 50k leaves arrive at a fixed pace that does not wait for the
// recorder: the worker must keep up, so not one event is dropped. The pace
// is half the rate the worker sustains alone on this host (at most 25k
// leaves/s), so the test measures interference from proofs, not CPU speed;
// a worker that waits for proofs falls behind at any such pace.
func TestProofFloodDuringBurstDropsNothing(t *testing.T) {
	const warm, total = 4096, 50_000
	rec := newRecorder(Config{Metrics: telemetry.NewRegistry()}, 4096)
	defer rec.Close()
	start := time.Now()
	feed(t, rec, 0, warm)
	rate := min(25_000, float64(warm)/time.Since(start).Seconds()/2)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var proofs atomic.Int64
	errc := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g uint64) {
			defer wg.Done()
			for i := g; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				n := rec.Size()
				if _, err := rec.InclusionProof(i*7919%n, n); err != nil {
					errc <- err
					return
				}
				if _, err := rec.ConsistencyProof(i*104729%n+1, n); err != nil {
					errc <- err
					return
				}
				proofs.Add(2)
				time.Sleep(10 * time.Millisecond)
			}
		}(uint64(g))
	}
	const every = 10 * time.Millisecond
	chunk := max(1, uint64(rate*every.Seconds()))
	next := time.Now()
	for i := uint64(warm); i < total; i += chunk {
		for j := i; j < i+chunk && j < total; j++ {
			rec.Record(Batch{ID: j + 1, Replica: "replica-a"})
		}
		next = next.Add(every)
		time.Sleep(time.Until(next))
	}
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for rec.Size()+rec.Dropped() < total && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if d := rec.Dropped(); d != 0 {
		t.Fatalf("%d events dropped under the proof flood (%d proofs, %.0f leaves/s)", d, proofs.Load(), rate)
	}
	if got := rec.Size(); got != total {
		t.Fatalf("log holds %d leaves, want %d", got, total)
	}
	t.Logf("%d proofs while appending at %.0f leaves/s", proofs.Load(), rate)
}

// TestTamperedSpillFailsProof flips one byte of a sealed segment in the
// spill file: the proof that needs it must fail, not come out wrong.
func TestTamperedSpillFailsProof(t *testing.T) {
	leaves := testLeaves(1000)
	l := buildLog(t, leaves)
	defer l.Close()
	v := l.view()
	if len(v.hashes.segs) < 2 {
		t.Fatalf("only %d sealed segments", len(v.hashes.segs))
	}
	// Segment 0 holds leaf 0's hash and its lowest siblings.
	e := v.hashes.segs[0]
	var b [1]byte
	if _, err := v.hashes.sp.f.ReadAt(b[:], e.off+e.n/2); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x10
	if _, err := v.hashes.sp.f.WriteAt(b[:], e.off+e.n/2); err != nil {
		t.Fatal(err)
	}
	if _, err := l.InclusionProof(0, 1000); !errors.Is(err, ErrStorage) {
		t.Fatalf("proof over a tampered segment returned %v, want ErrStorage", err)
	}
	if _, err := l.LeafAt(1); !errors.Is(err, ErrStorage) {
		t.Fatalf("leaf hash from a tampered segment returned %v, want ErrStorage", err)
	}
	// Proofs that touch only intact segments and the in-memory edge still
	// verify.
	root, err := l.RootAt(1000)
	if err != nil {
		t.Fatal(err)
	}
	p, err := l.InclusionProof(999, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyInclusion(LeafHash(leaves[999]), p, root); err != nil {
		t.Fatal(err)
	}
}

// TestSpillWriteFailureIsSticky breaks the spill file under a running
// recorder: the write error sticks, later leaves are counted as dropped and
// the audit endpoint answers 503 with the cause.
func TestSpillWriteFailureIsSticky(t *testing.T) {
	reg := telemetry.NewRegistry()
	rec := NewRecorder(Config{Metrics: reg})
	defer rec.Close()
	feed(t, rec, 0, 200) // past the first sealed segment: the file exists
	if err := rec.log.sp.f.Close(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(200); i < 1200; i++ {
		rec.Record(Batch{ID: i + 1})
	}
	deadline := time.Now().Add(10 * time.Second)
	for rec.Size()+rec.Dropped() < 1200 {
		if time.Now().After(deadline) {
			t.Fatalf("size %d + dropped %d never reached 1200", rec.Size(), rec.Dropped())
		}
		time.Sleep(time.Millisecond)
	}
	err := rec.Err()
	if !errors.Is(err, ErrStorage) {
		t.Fatalf("Err() = %v, want ErrStorage", err)
	}
	size, dropped := rec.Size(), rec.Dropped()
	if size >= 1200 || dropped == 0 {
		t.Fatalf("size %d dropped %d after a write failure", size, dropped)
	}
	if got := reg.Counter(telemetry.MetricTranscriptDropped).Value(); got != dropped {
		t.Fatalf("transcript.dropped counter %d, Dropped() %d", got, dropped)
	}
	rec.Record(Batch{ID: 5000})
	waitFor(t, "one more drop", func() bool { return rec.Dropped() == dropped+1 })
	if rec.Size() != size {
		t.Fatal("the log grew after a write failure")
	}
	if _, err := rec.InclusionProof(0, size); err == nil {
		t.Fatal("a proof was served after a write failure")
	}

	srv := httptest.NewServer(Handler(rec, HandlerConfig{}))
	defer srv.Close()
	for _, q := range []string{"", "?trace=5", "?consistency=3"} {
		resp, err := http.Get(srv.URL + "/audit" + q)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "spill storage failed") {
			t.Fatalf("/audit%s: %d %q, want 503 with the cause", q, resp.StatusCode, body)
		}
	}
}

// TestRecorderHeapBounded appends 100k leaves and requires the live heap to
// grow by no more than 4 MiB: stored hashes and encoded leaves live in the
// spill file, and the trace window is allocated up front.
func TestRecorderHeapBounded(t *testing.T) {
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	rec := NewRecorder(Config{Metrics: telemetry.NewRegistry()})
	defer rec.Close()
	before := heap()
	feed(t, rec, 0, 100_000)
	after := heap()
	runtime.KeepAlive(rec)
	if after > before && after-before > 4<<20 {
		t.Fatalf("heap grew %d KiB over 100k leaves, want <= 4096 KiB", (after-before)>>10)
	}
	t.Logf("heap %d -> %d KiB over 100k leaves", before>>10, after>>10)
	if _, _, _, err := rec.LeafByTrace(100_000); err != nil {
		t.Fatal("newest trace not found")
	}
	if _, _, _, err := rec.LeafByTrace(100_000 - traceWindow); err == nil {
		t.Fatal("a trace older than the window was found")
	}
}

// TestProofReadsLogarithmic counts the stored hashes each proof reads, from
// the index lists the proofs fetch, at 16k and 1M leaves.
func TestProofReadsLogarithmic(t *testing.T) {
	for _, n := range []uint64{16 << 10, 1 << 20, 1<<20 + 12345} {
		limit := 2*bits.Len64(n-1) + 4
		worst := 0
		for i := uint64(0); i < n; i += 997 {
			for _, idx := range [][]uint64{
				inclusionIndex(i, 0, n, nil),
				inclusionIndex(n-1-i, 0, n, nil),
				consistencyIndex(i+1, 0, n, nil),
				subtreeIndex(0, n-i, nil),
			} {
				worst = max(worst, len(idx))
			}
		}
		if worst > limit {
			t.Fatalf("n=%d: a proof reads %d stored hashes, limit %d", n, worst, limit)
		}
		t.Logf("n=%d: at most %d stored-hash reads per proof (limit %d)", n, worst, limit)
	}
}
