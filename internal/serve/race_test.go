package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/monitor"
	"repro/internal/tensor"
)

// adversarialEngine delivers results at the moments the serve contract
// leaves open: before Submit returns, twice, or never. Its Outputs channel
// is unbuffered, so a send completes only when demux receives it, and a
// second send completes only once demux has finished with the first.
type adversarialEngine struct {
	outs chan monitor.BatchResult
	// early: deliver the result, plus foreign results, before Submit returns.
	early bool
	// foreign is how many results for batches the server never submitted
	// precede the real one while Submit is in flight.
	foreign int
	// twice: deliver every result a second time after Submit returns.
	twice bool
	// never: accept the batch and never deliver it.
	never bool

	mu  sync.Mutex
	ids uint64
	wg  sync.WaitGroup
}

func newAdversarialEngine() *adversarialEngine {
	return &adversarialEngine{outs: make(chan monitor.BatchResult)}
}

func (e *adversarialEngine) Submit(in map[string]*tensor.Tensor) (uint64, error) {
	e.mu.Lock()
	e.ids += uint64(e.foreign) + 2
	id := e.ids
	e.mu.Unlock()
	y := in["x"].Clone()
	y.Scale(2)
	r := monitor.BatchResult{ID: id, Tensors: map[string]*tensor.Tensor{"y": y}}
	switch {
	case e.never:
	case e.early:
		for f := 0; f < e.foreign; f++ {
			e.outs <- monitor.BatchResult{ID: id - uint64(e.foreign) - 1 + uint64(f)}
		}
		e.outs <- r
		// Demux takes this only after it has parked r.
		e.outs <- monitor.BatchResult{ID: id + 1}
		if e.twice {
			e.outs <- r
		}
	default:
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			e.outs <- r
			if e.twice {
				e.outs <- r
			}
		}()
	}
	return id, nil
}

func (e *adversarialEngine) Outputs() <-chan monitor.BatchResult { return e.outs }

func (e *adversarialEngine) Ladder() []monitor.LadderRung {
	return []monitor.LadderRung{monitor.LadderFull}
}

// inferAll sends n single-row requests one after another and checks each
// answer is its own row doubled.
func inferAll(t *testing.T, s *Server, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		r, err := s.Infer(ctx, itemReq("t", Normal, float32(i)))
		cancel()
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if got := r.Tensors["y"].At(0, 0); got != float32(2*i) {
			t.Fatalf("request %d: y = %v, want %v", i, got, 2*i)
		}
	}
}

// TestResultBeforeSubmitReturns is the lost-result race: the engine
// delivers a batch's result before Submit has returned its ID. Every
// request must still be answered.
func TestResultBeforeSubmitReturns(t *testing.T) {
	e := newAdversarialEngine()
	e.early = true
	s := newTestServer(t, e, Config{MaxBatch: 1})
	inferAll(t, s, 50)
	s.pmu.Lock()
	defer s.pmu.Unlock()
	if len(s.early) != 0 || len(s.pending) != 0 {
		t.Fatalf("after the run: %d parked, %d pending, want none", len(s.early), len(s.pending))
	}
}

// TestEarlyResultsStayBounded floods demux with results of batches the
// server never submitted while each Submit is in flight: the real result
// must still be claimed, and no more than maxEarly results are ever parked.
func TestEarlyResultsStayBounded(t *testing.T) {
	e := newAdversarialEngine()
	e.early = true
	e.foreign = 3 * maxEarly
	s := newTestServer(t, e, Config{MaxBatch: 1})
	inferAll(t, s, 10)
	s.pmu.Lock()
	defer s.pmu.Unlock()
	if len(s.early) != 0 || cap(s.earlyIDs) > 2*maxEarly {
		t.Fatalf("%d results still parked, id queue capacity %d", len(s.early), cap(s.earlyIDs))
	}
}

// TestDuplicateResultAnsweredOnce delivers every result twice, before and
// after Submit returns: each request gets exactly one response.
func TestDuplicateResultAnsweredOnce(t *testing.T) {
	for _, early := range []bool{false, true} {
		e := newAdversarialEngine()
		e.early, e.twice = early, true
		s := newTestServer(t, e, Config{MaxBatch: 1})
		var chans []<-chan Response
		for i := 0; i < 20; i++ {
			ch, err := s.Submit(itemReq("t", Normal, float32(i)))
			if err != nil {
				t.Fatal(err)
			}
			if r := <-ch; r.Err != nil || r.Tensors["y"].At(0, 0) != float32(2*i) {
				t.Fatalf("early=%v request %d: %+v", early, i, r)
			}
			chans = append(chans, ch)
		}
		// Demux handles results in order: once the last duplicate has been
		// sent and one more request answered, every duplicate has been seen.
		e.wg.Wait()
		inferAll(t, s, 1)
		for i, ch := range chans {
			if len(ch) != 0 {
				t.Fatalf("early=%v request %d answered twice", early, i)
			}
		}
	}
}

// TestNeverDeliveredFailsOnClose: a batch the engine accepts and never
// answers leaves its caller waiting only until its context ends or the
// server closes.
func TestNeverDeliveredFailsOnClose(t *testing.T) {
	e := newAdversarialEngine()
	e.never = true
	s := New(e, Config{MaxBatch: 1, ItemShapes: declareX(1)})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := s.Infer(ctx, itemReq("t", Normal, 1)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Infer = %v, want deadline exceeded", err)
	}
	ch, err := s.Submit(itemReq("t", Normal, 2))
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if r := <-ch; !errors.Is(r.Err, ErrClosed) {
		t.Fatalf("after Close: %+v, want ErrClosed", r)
	}
}
