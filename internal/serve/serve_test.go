package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/monitor"
	"repro/internal/securechan"
	"repro/internal/telemetry"
	"repro/internal/tensor"
	"repro/internal/wire"
)

// fakeEngine is a scripted Engine for front-end unit tests: it records every
// submitted batch, optionally blocks submissions, and answers with behave
// (default: "y" = 2*"x", preserving shape — a batchable model).
type fakeEngine struct {
	outs   chan monitor.BatchResult
	block  chan struct{} // non-nil: Submit waits for a receive-ready channel
	behave func(id uint64, in map[string]*tensor.Tensor) monitor.BatchResult

	mu        sync.Mutex
	ids       uint64
	submitted []map[string]*tensor.Tensor
	ladder    []monitor.LadderRung
}

func newFakeEngine() *fakeEngine {
	return &fakeEngine{
		outs:   make(chan monitor.BatchResult, 64),
		ladder: []monitor.LadderRung{monitor.LadderFull},
	}
}

func (f *fakeEngine) Submit(inputs map[string]*tensor.Tensor) (uint64, error) {
	if f.block != nil {
		<-f.block
	}
	f.mu.Lock()
	f.ids++
	id := f.ids
	f.submitted = append(f.submitted, inputs)
	behave := f.behave
	f.mu.Unlock()
	if behave == nil {
		behave = func(id uint64, in map[string]*tensor.Tensor) monitor.BatchResult {
			y := in["x"].Clone()
			y.Scale(2)
			return monitor.BatchResult{ID: id, Tensors: map[string]*tensor.Tensor{"y": y}}
		}
	}
	f.outs <- behave(id, inputs)
	return id, nil
}

func (f *fakeEngine) Outputs() <-chan monitor.BatchResult { return f.outs }

func (f *fakeEngine) Ladder() []monitor.LadderRung {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]monitor.LadderRung(nil), f.ladder...)
}

func (f *fakeEngine) setLadder(rungs ...monitor.LadderRung) {
	f.mu.Lock()
	f.ladder = rungs
	f.mu.Unlock()
}

func (f *fakeEngine) batches() []map[string]*tensor.Tensor {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]map[string]*tensor.Tensor(nil), f.submitted...)
}

// newTestServer starts a server over e. Unless cfg declares its own input
// interface, the model takes one input "x" of one float per item.
func newTestServer(t *testing.T, e Engine, cfg Config) *Server {
	t.Helper()
	if cfg.ItemShapes == nil {
		cfg.ItemShapes = declareX(1)
	}
	if cfg.Metrics == nil {
		cfg.Metrics = telemetry.NewRegistry()
	}
	s := New(e, cfg)
	t.Cleanup(s.Close)
	return s
}

// declareX is the input interface of a model whose one input "x" carries
// width floats per item.
func declareX(width int) map[string][]int { return map[string][]int{"x": {1, width}} }

func itemReq(tenant string, prio Priority, vals ...float32) Request {
	return Request{Tenant: tenant, Priority: prio,
		Inputs: map[string]*tensor.Tensor{"x": tensor.MustFromSlice(vals, 1, len(vals))}}
}

func TestBatchFlushOnSize(t *testing.T) {
	fe := newFakeEngine()
	s := newTestServer(t, fe, Config{MaxBatch: 4, MaxDelay: 10 * time.Second, ItemShapes: declareX(2)})

	var wg sync.WaitGroup
	resps := make([]Response, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := s.Infer(context.Background(), itemReq("t", Normal, float32(i), float32(i)))
			if err != nil {
				t.Errorf("infer %d: %v", i, err)
				return
			}
			resps[i] = r
		}(i)
	}
	wg.Wait()

	// One engine batch of 4 items (the window never expired), each caller
	// getting back its own doubled row.
	if got := fe.batches(); len(got) != 1 || got[0]["x"].Dim(0) != 4 {
		t.Fatalf("engine saw %d batches (first rows=%v), want 1 batch of 4 rows",
			len(got), got[0]["x"].Shape())
	}
	for i, r := range resps {
		if r.BatchFill != 4 {
			t.Fatalf("resp %d fill = %d, want 4", i, r.BatchFill)
		}
		y := r.Tensors["y"]
		if y.Dim(0) != 1 || y.At(0, 0) != float32(2*i) {
			t.Fatalf("resp %d y = %v (shape %v), want %d", i, y.At(0, 0), y.Shape(), 2*i)
		}
	}
}

func TestBatchFlushOnTimer(t *testing.T) {
	fe := newFakeEngine()
	s := newTestServer(t, fe, Config{MaxBatch: 16, MaxDelay: 100 * time.Millisecond})

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := s.Infer(context.Background(), itemReq("t", Normal, float32(i)))
			if err != nil {
				t.Errorf("infer: %v", err)
				return
			}
			if r.BatchFill != 3 {
				t.Errorf("fill = %d, want 3 (timer flush)", r.BatchFill)
			}
		}(i)
	}
	wg.Wait()
	if got := fe.batches(); len(got) != 1 || got[0]["x"].Dim(0) != 3 {
		t.Fatalf("engine saw %v batches, want 1 of 3 rows", len(got))
	}
}

func TestMultiRowDemux(t *testing.T) {
	fe := newFakeEngine()
	s := newTestServer(t, fe, Config{MaxBatch: 2, MaxDelay: time.Second, ItemShapes: declareX(2)})

	var wg sync.WaitGroup
	var r2, r1 Response
	wg.Add(2)
	go func() {
		defer wg.Done()
		r, err := s.Infer(context.Background(), Request{Tenant: "a", Priority: Normal,
			Inputs: map[string]*tensor.Tensor{"x": tensor.MustFromSlice([]float32{1, 2, 3, 4}, 2, 2)}})
		if err != nil {
			t.Errorf("2-row infer: %v", err)
		}
		r2 = r
	}()
	go func() {
		defer wg.Done()
		r, err := s.Infer(context.Background(), Request{Tenant: "b", Priority: Normal,
			Inputs: map[string]*tensor.Tensor{"x": tensor.MustFromSlice([]float32{5, 6}, 1, 2)}})
		if err != nil {
			t.Errorf("1-row infer: %v", err)
		}
		r1 = r
	}()
	wg.Wait()

	if y := r2.Tensors["y"]; y.Dim(0) != 2 || y.Size() != 4 {
		t.Fatalf("2-row caller got shape %v", y.Shape())
	}
	if y := r1.Tensors["y"]; y.Dim(0) != 1 || y.At(0, 0) != 10 || y.At(0, 1) != 12 {
		t.Fatalf("1-row caller got %v %v", y.Shape(), y.Data())
	}
	// Callers must not alias one backing array.
	r2.Tensors["y"].Fill(-1)
	if r1.Tensors["y"].At(0, 0) != 10 {
		t.Fatal("split outputs alias one backing array")
	}
}

func TestTenantQueueOverflowRetryAfter(t *testing.T) {
	fe := newFakeEngine()
	fe.block = make(chan struct{}) // engine accepts nothing: queues fill
	s := newTestServer(t, fe, Config{MaxBatch: 1, MaxDelay: time.Millisecond, TenantQueue: 2})
	defer close(fe.block)

	// First request is pulled into batch assembly; the next two occupy the
	// tenant queue; the fourth must be rejected with a retry-after hint.
	var chans []<-chan Response
	deadline := time.Now().Add(5 * time.Second)
	for {
		ch, err := s.Submit(itemReq("t", Normal, 1))
		if err != nil {
			var ov *OverloadError
			if !errors.As(err, &ov) {
				t.Fatalf("overflow returned %v, want *OverloadError", err)
			}
			if ov.Scope != "tenant" || ov.Tenant != "t" || ov.RetryAfter <= 0 {
				t.Fatalf("bad overload error: %+v", ov)
			}
			break
		}
		chans = append(chans, ch)
		if len(chans) > 3 || time.Now().After(deadline) {
			t.Fatalf("admitted %d requests, want rejection after ~3 (cap 2 + 1 assembling)", len(chans))
		}
	}

	// Other tenants are isolated: their queues are not full.
	if _, err := s.Submit(itemReq("other", Normal, 1)); err != nil {
		t.Fatalf("other tenant rejected: %v", err)
	}
}

func TestGlobalQueueOverflow(t *testing.T) {
	fe := newFakeEngine()
	fe.block = make(chan struct{})
	s := newTestServer(t, fe, Config{MaxBatch: 1, MaxDelay: time.Millisecond,
		TenantQueue: 100, GlobalQueue: 3})
	defer close(fe.block)

	admitted := 0
	for i := 0; i < 10; i++ {
		_, err := s.Submit(itemReq(fmt.Sprintf("t%d", i), Normal, 1))
		if err == nil {
			admitted++
			continue
		}
		var ov *OverloadError
		if !errors.As(err, &ov) || ov.Scope != "global" {
			t.Fatalf("got %v, want global *OverloadError", err)
		}
		return
	}
	t.Fatalf("admitted %d requests past a global cap of 3", admitted)
}

func TestDrainCompletesInflight(t *testing.T) {
	fe := newFakeEngine()
	release := make(chan struct{})
	fe.block = release
	s := newTestServer(t, fe, Config{MaxBatch: 1, MaxDelay: time.Millisecond})

	var wg sync.WaitGroup
	results := make(chan error, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := s.Infer(context.Background(), itemReq("t", Normal, float32(i)))
			results <- err
		}(i)
	}
	// Wait until the requests are admitted (queued or assembling).
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.queued+boolInt(s.flushing) >= 2
	})

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()

	// New work is refused while draining.
	waitFor(t, func() bool { return s.Draining() })
	if _, err := s.Submit(itemReq("t", Normal, 9)); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit during drain: %v, want ErrDraining", err)
	}

	// Unblock the engine; the drain must complete every admitted request.
	go func() {
		for i := 0; i < 3; i++ {
			release <- struct{}{}
		}
	}()
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()
	close(results)
	for err := range results {
		if err != nil {
			t.Fatalf("in-flight request failed during drain: %v", err)
		}
	}
}

func TestSubmitRejectsOversizedItemCount(t *testing.T) {
	fe := newFakeEngine()
	s := newTestServer(t, fe, Config{MaxBatch: 4, MaxDelay: time.Millisecond, ItemShapes: declareX(2)})

	// maxItems refuses an outsized leading dimension at the door instead of
	// letting it reach batch assembly.
	big := Request{Inputs: map[string]*tensor.Tensor{"x": tensor.New(maxItems+1, 2)}}
	if _, err := s.Submit(big); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("oversized request: %v, want ErrBadRequest", err)
	}

	// The item bound is independent of MaxBatch: a request of exactly
	// maxItems rows is admitted and served by a 4-request batch window.
	ok := Request{Inputs: map[string]*tensor.Tensor{"x": tensor.New(maxItems, 2)}}
	if _, err := s.Infer(context.Background(), ok); err != nil {
		t.Fatalf("%d-item request: %v", maxItems, err)
	}
}

func TestDrainWaitsForAssemblingBatch(t *testing.T) {
	fe := newFakeEngine()
	// A long window and MaxBatch > 1 park the scheduler in batch assembly:
	// the lone request has left the queues (queued back to 0) but is not yet
	// in pending, exactly the window where Drain used to declare emptiness.
	s := newTestServer(t, fe, Config{MaxBatch: 4, MaxDelay: 10 * time.Second})

	ch, err := s.Submit(itemReq("t", Normal, 1))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.queued == 0 && s.flushing
	})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	select {
	case r := <-ch:
		if r.Err != nil {
			t.Fatalf("admitted request failed: %v", r.Err)
		}
	default:
		t.Fatal("Drain returned before the admitted request completed")
	}
}

func TestShedFollowsLadder(t *testing.T) {
	fe := newFakeEngine()
	s := newTestServer(t, fe, Config{MaxBatch: 1, MaxDelay: time.Millisecond})

	if _, err := s.Infer(context.Background(), itemReq("t", Low, 1)); err != nil {
		t.Fatalf("healthy engine shed a Low request: %v", err)
	}

	fe.setLadder(monitor.LadderQuorum) // a variant died somewhere
	waitFor(t, func() bool { return s.Shed() == ShedLow })
	_, err := s.Submit(itemReq("t", Low, 1))
	var ov *OverloadError
	if !errors.As(err, &ov) || ov.Scope != "shed" {
		t.Fatalf("Low under quorum: %v, want shed *OverloadError", err)
	}
	if _, err := s.Infer(context.Background(), itemReq("t", Normal, 1)); err != nil {
		t.Fatalf("Normal under quorum rejected: %v", err)
	}

	fe.setLadder(monitor.LadderSingle)
	waitFor(t, func() bool { return s.Shed() == ShedToHigh })
	if _, err := s.Submit(itemReq("t", Normal, 1)); err == nil {
		t.Fatal("Normal admitted at ShedToHigh")
	}
	if _, err := s.Infer(context.Background(), itemReq("t", High, 1)); err != nil {
		t.Fatalf("High under single rejected: %v", err)
	}

	fe.setLadder(monitor.LadderFull) // replacement restored the stage
	waitFor(t, func() bool { return s.Shed() == ShedNone })
	if _, err := s.Infer(context.Background(), itemReq("t", Low, 1)); err != nil {
		t.Fatalf("recovered engine still shedding: %v", err)
	}
}

func TestUnbatchableOutputSurfacesError(t *testing.T) {
	fe := newFakeEngine()
	fe.behave = func(id uint64, in map[string]*tensor.Tensor) monitor.BatchResult {
		// A model that ignores the batch axis: scalar output whatever the
		// input rows — the demux must refuse to split it.
		return monitor.BatchResult{ID: id, Tensors: map[string]*tensor.Tensor{
			"y": tensor.MustFromSlice([]float32{42}, 1, 1)}}
	}
	s := newTestServer(t, fe, Config{MaxBatch: 2, MaxDelay: time.Second})

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.Infer(context.Background(), itemReq("t", Normal, 7))
			if err == nil || !strings.Contains(err.Error(), "does not match batch items") {
				t.Errorf("unbatchable output: err = %v", err)
			}
		}()
	}
	wg.Wait()
}

func TestBadRequests(t *testing.T) {
	fe := newFakeEngine()
	s := newTestServer(t, fe, Config{})
	cases := []Request{
		{Tenant: "t", Inputs: nil},
		{Tenant: "t", Inputs: map[string]*tensor.Tensor{"x": nil}},
		{Tenant: "t", Inputs: map[string]*tensor.Tensor{"x": tensor.New()}},
		{Tenant: "t", Inputs: map[string]*tensor.Tensor{"x": tensor.New(0, 1)}},
		{Tenant: "t", Priority: numLanes, Inputs: map[string]*tensor.Tensor{"x": tensor.New(1, 1)}},
	}
	for i, req := range cases {
		if _, err := s.Submit(req); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("case %d: err = %v, want ErrBadRequest", i, err)
		}
	}
	// An empty interface admits nothing.
	s.cfg.ItemShapes = nil
	if _, err := s.Submit(itemReq("t", Normal, 1)); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("empty interface: err = %v, want ErrBadRequest", err)
	}
}

// TestDeclaredShapesGateAdmission sends every way of missing the declared
// input interface through Submit and through both HTTP content types: each
// must be refused (ErrBadRequest, 400) before it reaches the engine.
func TestDeclaredShapesGateAdmission(t *testing.T) {
	fe := newFakeEngine()
	s := newTestServer(t, fe, Config{MaxBatch: 1, MaxDelay: time.Millisecond,
		ItemShapes: map[string][]int{"x": {1, 4}, "m": {1, 2}}})
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	in := func(x, m *tensor.Tensor) map[string]*tensor.Tensor {
		out := map[string]*tensor.Tensor{"x": x}
		if m != nil {
			out["m"] = m
		}
		return out
	}
	bad := []struct {
		name   string
		inputs map[string]*tensor.Tensor
	}{
		{"unknown input", map[string]*tensor.Tensor{
			"x": tensor.New(1, 4), "m": tensor.New(1, 2), "y": tensor.New(1, 4)}},
		{"missing input", in(tensor.New(1, 4), nil)},
		{"wrong rank", in(tensor.New(1, 4, 1), tensor.New(1, 2))},
		{"wrong per-item dims", in(tensor.New(1, 3), tensor.New(1, 2))},
		{"mismatched leading dims", in(tensor.New(2, 4), tensor.New(1, 2))},
		{"over maxItems", in(tensor.New(maxItems+1, 4), tensor.New(maxItems+1, 2))},
	}
	paths := []struct {
		name string
		send func(map[string]*tensor.Tensor) error
	}{
		{"submit", func(in map[string]*tensor.Tensor) error {
			_, err := s.Submit(Request{Tenant: "t", Inputs: in})
			return err
		}},
		{"json", func(in map[string]*tensor.Tensor) error {
			_, err := (&Client{BaseURL: ts.URL}).Infer(context.Background(), Request{Tenant: "t", Inputs: in})
			return err
		}},
		{"binary", func(in map[string]*tensor.Tensor) error {
			_, err := binClient(ts.URL).Infer(context.Background(), Request{Tenant: "t", Inputs: in})
			return err
		}},
	}
	// Submit refuses with ErrBadRequest, both HTTP codecs with a 400.
	refused := func(err error) bool {
		var se *StatusError
		return errors.Is(err, ErrBadRequest) || errors.As(err, &se) && se.Status == http.StatusBadRequest
	}
	for _, p := range paths {
		for _, c := range bad {
			if err := p.send(c.inputs); !refused(err) {
				t.Errorf("%s, %s: err = %v, want a bad-request refusal", p.name, c.name, err)
			}
		}
		// A conforming request passes whatever its item count.
		if err := p.send(in(tensor.New(3, 4), tensor.New(3, 2))); err != nil {
			t.Errorf("%s: conforming 3-item request refused: %v", p.name, err)
		}
	}
	waitFor(t, func() bool { return len(fe.batches()) == len(paths) })
	for _, b := range fe.batches() {
		if b["x"].Dim(0) != 3 {
			t.Fatalf("engine saw a %v batch, want only the conforming 3-item requests", b["x"].Shape())
		}
	}
}

// TestWRRPickOrder drives the scheduler's pick directly (no goroutines): a
// weight-3 tenant must receive three picks for every one of a weight-1
// tenant, the High lane must always preempt Normal and Low, and within a
// tenant's lane requests must leave in arrival order.
func TestWRRPickOrder(t *testing.T) {
	s := &Server{
		cfg:     Config{Tenants: map[string]TenantConfig{"heavy": {Weight: 3}}},
		met:     newServeMetrics(telemetry.NewRegistry()),
		tenants: make(map[string]*tenantState),
	}
	s.cfg.fill()

	var seq uint64
	enq := func(tenant string, lane Priority, n int) {
		st := s.tenant(tenant)
		for i := 0; i < n; i++ {
			seq++
			st.lanes[lane] = append(st.lanes[lane], &pendingReq{id: seq, tenant: st, lane: lane})
			st.depth++
			s.queued++
		}
	}
	enq("heavy", Normal, 9)
	enq("light", Normal, 9)
	enq("light", Low, 1)
	enq("light", High, 1)

	var order []string
	last := map[string]uint64{}
	for {
		p := s.pick()
		if p == nil {
			break
		}
		key := p.tenant.name + "/" + p.lane.String()
		if p.id < last[key] {
			t.Fatalf("%s: request %d picked after %d, want FIFO within a tenant lane", key, p.id, last[key])
		}
		last[key] = p.id
		order = append(order, key)
	}
	if len(order) != 20 {
		t.Fatalf("picked %d, want 20", len(order))
	}
	if order[0] != "light/high" {
		t.Fatalf("first pick %q, want the High-lane request", order[0])
	}
	if last := order[len(order)-1]; last != "light/low" {
		t.Fatalf("last pick %q, want the Low-lane request", last)
	}
	// Inside the Normal lane, every weight round serves heavy 3x and light
	// 1x until heavy's queue dries up; count the first two rounds.
	heavyFirst8 := 0
	for _, o := range order[1:9] {
		if o == "heavy/normal" {
			heavyFirst8++
		}
	}
	if heavyFirst8 != 6 {
		t.Fatalf("heavy got %d of the first 8 Normal picks, want 6 (3:1 WRR)", heavyFirst8)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// --- real-engine integration ---------------------------------------------------

// pipeVariant is a wire-speaking fake variant on one end of a net.Pipe,
// mirroring the monitor package's test double: behave maps a batch's inputs
// to outputs (or an error string, simulating a crash).
type pipeVariant struct {
	id     string
	behave func(in map[string]*tensor.Tensor) (map[string]*tensor.Tensor, string)
}

func (v *pipeVariant) start(t *testing.T, partition int) *monitor.Handle {
	t.Helper()
	monC, varC := net.Pipe()
	mc, vc := securechan.Plain(monC), securechan.Plain(varC)
	go func() {
		for {
			msg, err := wire.Recv(vc)
			if err != nil {
				return
			}
			switch m := msg.(type) {
			case *wire.Batch:
				outs, errStr := v.behave(m.Tensors)
				res := &wire.Result{ID: m.ID, Trace: m.Trace, VariantID: v.id, Err: errStr, Tensors: outs}
				if err := wire.Send(vc, res); err != nil {
					return
				}
			case *wire.Shutdown:
				_ = vc.Close()
				return
			}
		}
	}()
	return monitor.NewHandle(v.id, partition, "spec", mc)
}

func doubleRows(in map[string]*tensor.Tensor) (map[string]*tensor.Tensor, string) {
	y := in["x"].Clone()
	y.Scale(2)
	return map[string]*tensor.Tensor{"y": y}, ""
}

// TestDemuxAfterHotReplacement streams many single-item requests through a
// real MVX engine while one variant crashes mid-stream and a spare is
// promoted (PR 2 hot replacement). Every response must still carry exactly
// its own request's rows — the request→result mapping survives the
// replacement because engine batch IDs are stable across it.
func TestDemuxAfterHotReplacement(t *testing.T) {
	poison := float32(1313)
	evil := &pipeVariant{id: "evil", behave: func(in map[string]*tensor.Tensor) (map[string]*tensor.Tensor, string) {
		for _, v := range in["x"].Data() {
			if v == poison {
				return nil, "simulated crash"
			}
		}
		return doubleRows(in)
	}}
	good1 := &pipeVariant{id: "good1", behave: doubleRows}
	good2 := &pipeVariant{id: "good2", behave: doubleRows}

	var spares atomic.Int64
	cfg := monitor.EngineConfig{
		GraphInputs:  []string{"x"},
		GraphOutputs: []string{"y"},
		Stages: []monitor.StageSpec{{
			Inputs:  []string{"x"},
			Outputs: []string{"y"},
			Handles: []*monitor.Handle{good1.start(t, 0), good2.start(t, 0), evil.start(t, 0)},
		}},
		Response: monitor.Recover,
		Replace: func(stage, slot int, deadID string, sinceBatch uint64) (*monitor.Handle, error) {
			n := spares.Add(1)
			sp := &pipeVariant{id: fmt.Sprintf("spare-%d", n), behave: doubleRows}
			return sp.start(t, 0), nil
		},
		Metrics: telemetry.NewRegistry(),
	}
	eng, err := monitor.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	t.Cleanup(eng.Stop)

	s := newTestServer(t, eng, Config{MaxBatch: 4, MaxDelay: 2 * time.Millisecond})

	const clients = 8
	const perClient = 25
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				v := float32(c*1000 + i)
				if c == 3 && i == 10 {
					v = poison // kills the evil variant mid-stream
				}
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				r, err := s.Infer(ctx, itemReq(fmt.Sprintf("tenant%d", c%3), Normal, v))
				cancel()
				if err != nil {
					errs <- fmt.Errorf("client %d req %d: %w", c, i, err)
					return
				}
				if got := r.Tensors["y"].At(0, 0); got != 2*v {
					errs <- fmt.Errorf("client %d req %d: y=%v want %v (demux mixed batches)", c, i, got, 2*v)
					return
				}
			}
			errs <- nil
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// The crash must have promoted exactly one spare.
	waitFor(t, func() bool { return spares.Load() >= 1 })
	replaced := false
	for _, ev := range eng.Events() {
		if ev.Kind == monitor.EventVariantReplaced {
			replaced = true
		}
	}
	if !replaced {
		t.Fatal("no EventVariantReplaced recorded — the crash never triggered replacement")
	}
}
