package monitor

import (
	"bytes"
	"net"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/securechan"
	"repro/internal/telemetry"
	"repro/internal/tensor"
	"repro/internal/wire"
)

// scriptConn is a monitor-side variant connection the test fully controls:
// dispatched batch payloads are recorded (never blocking the stage worker),
// and results flow back only when the test releases them.
type scriptConn struct {
	id string

	mu       sync.Mutex
	payloads [][]byte // raw dispatched wire payloads, in order
	backing  []*byte  // first byte of each dispatched payload as passed to Send
	ids      []uint64
	bufSends int // batches that arrived through SendBuf (a per-variant encode)

	resCh  chan []byte
	closed chan struct{}
	once   sync.Once
}

func newScriptConn(id string) *scriptConn {
	return &scriptConn{id: id, resCh: make(chan []byte, 64), closed: make(chan struct{})}
}

// SendBuf is the path wire.Send takes: a batch arriving here was encoded
// for this variant alone, so it is counted apart from the fan-out path.
func (c *scriptConn) SendBuf(b *securechan.Buf) error {
	defer b.Free()
	return c.record(b.Payload(), true)
}

// Send is the encode-once fan-out path: every variant is handed the same
// payload slice, so its backing array is kept for the identity check.
func (c *scriptConn) Send(b []byte) error {
	return c.record(b, false)
}

func (c *scriptConn) record(b []byte, viaBuf bool) error {
	msg, err := wire.Unmarshal(b)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if batch, ok := msg.(*wire.Batch); ok {
		if viaBuf {
			c.bufSends++
		}
		c.payloads = append(c.payloads, append([]byte(nil), b...))
		c.backing = append(c.backing, unsafe.SliceData(b))
		c.ids = append(c.ids, batch.ID)
	}
	return nil
}

func (c *scriptConn) Recv() ([]byte, error) {
	select {
	case b := <-c.resCh:
		return b, nil
	case <-c.closed:
		return nil, net.ErrClosed
	}
}

func (c *scriptConn) SetIOTimeout(time.Duration) {}

func (c *scriptConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

// release sends one successful result for batch id back to the monitor.
func (c *scriptConn) release(t *testing.T, id uint64) {
	t.Helper()
	res := &wire.Result{ID: id, VariantID: c.id, Tensors: map[string]*tensor.Tensor{
		"y": tensor.MustFromSlice([]float32{float32(id)}, 1),
	}}
	b, err := wire.MarshalBuf(res)
	if err != nil {
		t.Fatal(err)
	}
	c.resCh <- append([]byte(nil), b.Payload()...)
	b.Free()
}

func (c *scriptConn) dispatched() []uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]uint64(nil), c.ids...)
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestInflightWindowThrottlesDispatch pins the credit semantics: with
// InflightWindow=W, a stage holds at most W outstanding gathers — further
// batches queue and are dispatched only as earlier gathers resolve.
func TestInflightWindowThrottlesDispatch(t *testing.T) {
	sc := newScriptConn("v0")
	h := NewHandle("v0", 0, "spec", sc)
	cfg := EngineConfig{
		GraphInputs:  []string{"x"},
		GraphOutputs: []string{"y"},
		Stages: []StageSpec{
			{Inputs: []string{"x"}, Outputs: []string{"y"}, Handles: []*Handle{h}},
		},
		MaxInFlight:    8,
		InflightWindow: 2,
	}
	e := buildEngine(t, cfg)

	for i := 0; i < 5; i++ {
		if _, err := e.Submit(input(float32(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Only the first W=2 batches may reach the variant.
	waitFor(t, func() bool { return len(sc.dispatched()) == 2 }, "initial window dispatch")
	time.Sleep(20 * time.Millisecond)
	if got := sc.dispatched(); len(got) != 2 {
		t.Fatalf("window=2 but %d batches dispatched: %v", len(got), got)
	}

	// Resolving one gather refunds one credit: exactly one more dispatch.
	sc.release(t, sc.dispatched()[0])
	waitFor(t, func() bool { return len(sc.dispatched()) == 3 }, "credit refund dispatch")
	time.Sleep(20 * time.Millisecond)
	if got := sc.dispatched(); len(got) != 3 {
		t.Fatalf("one credit released but %d dispatched: %v", len(got), got)
	}

	// Drain the rest in dispatch order; all five batches must complete.
	released := map[uint64]bool{sc.dispatched()[0]: true}
	for completed := 1; completed < 5; completed++ {
		var next uint64
		waitFor(t, func() bool {
			for _, id := range sc.dispatched() {
				if !released[id] {
					next = id
					return true
				}
			}
			return false
		}, "next dispatch")
		released[next] = true
		sc.release(t, next)
	}
	for i := 0; i < 5; i++ {
		r := <-e.Outputs()
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	if got := sc.dispatched(); len(got) != 5 {
		t.Fatalf("dispatched %d batches, want 5", len(got))
	}
}

// TestSetInflightWindowRetunesLive pins the dynamic-window contract: a
// running stage picks up Engine.SetInflightWindow at its next drain, without
// a restart and without revoking credits mid-gather.
func TestSetInflightWindowRetunesLive(t *testing.T) {
	sc := newScriptConn("v0")
	h := NewHandle("v0", 0, "spec", sc)
	e := buildEngine(t, EngineConfig{
		GraphInputs:  []string{"x"},
		GraphOutputs: []string{"y"},
		Stages: []StageSpec{
			{Inputs: []string{"x"}, Outputs: []string{"y"}, Handles: []*Handle{h}},
		},
		MaxInFlight:    8,
		InflightWindow: 1,
	})
	if got := e.InflightWindow(); got != 1 {
		t.Fatalf("InflightWindow() = %d, want 1", got)
	}

	for i := 0; i < 4; i++ {
		if _, err := e.Submit(input(float32(i))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return len(sc.dispatched()) == 1 }, "window=1 dispatch")
	time.Sleep(20 * time.Millisecond)
	if got := sc.dispatched(); len(got) != 1 {
		t.Fatalf("window=1 but %d dispatched", len(got))
	}

	// Widen to 3: the refund from resolving the outstanding gather drains
	// pending up to the new budget.
	e.SetInflightWindow(3)
	sc.release(t, sc.dispatched()[0])
	waitFor(t, func() bool { return len(sc.dispatched()) == 4 }, "widened-window dispatch")

	for _, id := range sc.dispatched()[1:] {
		sc.release(t, id)
	}
	for i := 0; i < 4; i++ {
		if r := <-e.Outputs(); r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	// Negative clamps to 0 (window disabled).
	e.SetInflightWindow(-5)
	if got := e.InflightWindow(); got != 0 {
		t.Fatalf("negative retune gave %d, want 0", got)
	}
}

// TestDispatchEncodesOnceAcrossVariants checks the fan-out contract on a
// 3-variant MVX stage: the dispatcher marshals the batch once and hands every
// variant the same payload slice through Send, and those bytes match the
// pooled codec. Since the codec is deterministic, byte equality alone cannot
// catch a per-variant encode; the send path and the shared backing array do.
func TestDispatchEncodesOnceAcrossVariants(t *testing.T) {
	// With telemetry off the engine mints a zero trace ID, so the reference
	// marshal below (also zero-trace) must match the dispatched bytes exactly.
	telemetry.SetEnabled(false)
	defer telemetry.SetEnabled(true)
	conns := []*scriptConn{newScriptConn("v0"), newScriptConn("v1"), newScriptConn("v2")}
	handles := make([]*Handle, len(conns))
	for i, c := range conns {
		handles[i] = NewHandle(c.id, 0, "spec", c)
	}
	cfg := EngineConfig{
		GraphInputs:  []string{"x", "w", "b", "m", "s"},
		GraphOutputs: []string{"y"},
		Stages: []StageSpec{
			{Inputs: []string{"x", "w", "b", "m", "s"}, Outputs: []string{"y"}, Handles: handles},
		},
	}
	e := buildEngine(t, cfg)

	// Several tensors, so the payload exercises the sorted tensor section.
	inputs := map[string]*tensor.Tensor{
		"x": tensor.MustFromSlice([]float32{1, 2}, 2),
		"w": tensor.MustFromSlice([]float32{3}, 1),
		"b": tensor.MustFromSlice([]float32{4}, 1),
		"m": tensor.MustFromSlice([]float32{5}, 1),
		"s": tensor.MustFromSlice([]float32{6}, 1),
	}
	id, err := e.Submit(inputs)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range conns {
		cc := c
		waitFor(t, func() bool { return len(cc.dispatched()) == 1 }, "dispatch to "+c.id)
	}
	ref := wire.MarshalBatch(&wire.Batch{ID: id, Tensors: inputs})
	defer ref.Free()
	for _, c := range conns {
		c.mu.Lock()
		payload, backing, bufSends := c.payloads[0], c.backing[0], c.bufSends
		c.mu.Unlock()
		if bufSends != 0 {
			t.Fatalf("variant %s got the batch through SendBuf: encoded per variant", c.id)
		}
		if backing != conns[0].backing[0] {
			t.Fatalf("variant %s got a different payload slice than v0: encoded per variant", c.id)
		}
		if !bytes.Equal(payload, conns[0].payloads[0]) {
			t.Fatalf("variant %s received different bytes than v0", c.id)
		}
		if !bytes.Equal(payload, ref.Payload()) {
			t.Fatalf("variant %s payload differs from the pooled codec", c.id)
		}
	}
	for _, c := range conns {
		c.release(t, id)
	}
	r := <-e.Outputs()
	if r.Err != nil {
		t.Fatal(r.Err)
	}
}

// TestStageQueueBoundedByMaxInFlight pins the bound on the per-stage queue
// that the control plane no longer sheds on: a stage queues only batches
// holding one of the engine's MaxInFlight slots, so a flood against a slow
// first stage with a credit window of 1 backs the stage-queue gauge up to at
// most MaxInFlight, and with the window off (0, the daemons' default) the
// queue drains after every event and the gauge reads 0.
func TestStageQueueBoundedByMaxInFlight(t *testing.T) {
	for _, window := range []int{1, 0} {
		slow := &fakeVariant{id: "slow", behave: doubler(0), delay: 2 * time.Millisecond}
		next := &fakeVariant{id: "next", behave: incrementer()}
		cfg := twoStageConfig([]*Handle{slow.start(t, 0)}, []*Handle{next.start(t, 1)})
		cfg.InflightWindow = window
		reg := telemetry.NewRegistry()
		cfg.Metrics = reg
		e := buildEngine(t, cfg)
		gauges := []*telemetry.Gauge{
			reg.Gauge(telemetry.MetricEngineQueueDepth, telemetry.L("stage", "0")),
			reg.Gauge(telemetry.MetricEngineQueueDepth, telemetry.L("stage", "1")),
		}

		const batches = 40
		stop := make(chan struct{})
		peak := make(chan int64)
		go func() {
			var max int64
			for {
				for _, g := range gauges {
					if v := g.Value(); v > max {
						max = v
					}
				}
				select {
				case <-stop:
					peak <- max
					return
				default:
					time.Sleep(20 * time.Microsecond)
				}
			}
		}()
		go func() {
			for i := 0; i < batches; i++ {
				if _, err := e.Submit(input(float32(i))); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		for i := 0; i < batches; i++ {
			if r := <-e.Outputs(); r.Err != nil {
				t.Fatal(r.Err)
			}
		}
		close(stop)
		max := <-peak

		switch limit := int64(e.cfg.MaxInFlight); {
		case window == 0 && max != 0:
			t.Fatalf("window 0: stage queue reached %d, want 0", max)
		case window > 0 && (max < 1 || max > limit):
			t.Fatalf("window %d: stage queue peaked at %d, want within [1, MaxInFlight=%d]", window, max, limit)
		}
		t.Logf("window %d: stage queue peak %d (MaxInFlight %d)", window, max, e.cfg.MaxInFlight)
	}
}

// TestFailedBranchKeepsSiblingQueueBounded pins the slot a failed DAG batch
// holds: the left branch of a diamond fails every batch (two variants that
// never agree, ReportOnly), so each batch's error is delivered while the
// slow right branch still has it queued. The batch keeps its MaxInFlight
// slot until the right branch reports, so the right stage's queue stays
// within MaxInFlight, and every batch still gets exactly one result.
func TestFailedBranchKeepsSiblingQueueBounded(t *testing.T) {
	scale := func(in, out string, k float32) func(uint64, map[string]*tensor.Tensor) (map[string]*tensor.Tensor, string) {
		return func(_ uint64, ins map[string]*tensor.Tensor) (map[string]*tensor.Tensor, string) {
			y := ins[in].Clone()
			y.Apply(func(v float32) float32 { return k * v })
			return map[string]*tensor.Tensor{out: y}, ""
		}
	}
	src := &fakeVariant{id: "src", behave: func(_ uint64, in map[string]*tensor.Tensor) (map[string]*tensor.Tensor, string) {
		return map[string]*tensor.Tensor{"a": in["x"].Clone(), "b": in["x"].Clone()}, ""
	}}
	left0 := &fakeVariant{id: "left0", behave: scale("a", "l", 2)}
	left1 := &fakeVariant{id: "left1", behave: scale("a", "l", 3)}
	right := &fakeVariant{id: "right", behave: scale("b", "r", 3), delay: 5 * time.Millisecond}
	join := &fakeVariant{id: "join", behave: func(_ uint64, in map[string]*tensor.Tensor) (map[string]*tensor.Tensor, string) {
		return map[string]*tensor.Tensor{"z": in["l"].Clone()}, ""
	}}
	reg := telemetry.NewRegistry()
	cfg := EngineConfig{
		GraphInputs:  []string{"x"},
		GraphOutputs: []string{"z"},
		Stages: []StageSpec{
			{Inputs: []string{"x"}, Outputs: []string{"a", "b"}, Handles: []*Handle{src.start(t, 0)}},
			{Inputs: []string{"a"}, Outputs: []string{"l"}, Handles: []*Handle{left0.start(t, 1), left1.start(t, 1)}},
			{Inputs: []string{"b"}, Outputs: []string{"r"}, Handles: []*Handle{right.start(t, 2)}},
			{Inputs: []string{"l", "r"}, Outputs: []string{"z"}, Handles: []*Handle{join.start(t, 3)}},
		},
		Response:       ReportOnly,
		MaxInFlight:    8,
		InflightWindow: 1,
		Metrics:        reg,
	}
	e := buildEngine(t, cfg)
	depth := reg.Gauge(telemetry.MetricEngineQueueDepth, telemetry.L("stage", "2"))

	const batches = 60
	stop := make(chan struct{})
	peak := make(chan int64)
	go func() {
		var max int64
		for {
			if v := depth.Value(); v > max {
				max = v
			}
			select {
			case <-stop:
				peak <- max
				return
			default:
				time.Sleep(20 * time.Microsecond)
			}
		}
	}()
	ids := make(chan uint64, batches)
	go func() {
		defer close(ids)
		for i := 0; i < batches; i++ {
			id, err := e.Submit(input(float32(i + 1))) // nonzero: 2x and 3x differ
			if err != nil {
				t.Error(err)
				return
			}
			ids <- id
		}
	}()
	got := make(map[uint64]int, batches)
	for i := 0; i < batches; i++ {
		select {
		case r := <-e.Outputs():
			if r.Err == nil {
				t.Fatalf("batch %d succeeded; the left branch fails every batch", r.ID)
			}
			got[r.ID]++
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d results", i, batches)
		}
	}
	close(stop)
	max := <-peak
	for id := range ids {
		if got[id] != 1 {
			t.Fatalf("batch %d got %d results, want 1", id, got[id])
		}
		delete(got, id)
	}
	if len(got) != 0 {
		t.Fatalf("results for unsubmitted batches: %v", got)
	}
	select {
	case r := <-e.Outputs():
		t.Fatalf("extra result %+v", r)
	case <-time.After(20 * time.Millisecond):
	}
	if limit := int64(cfg.MaxInFlight); max > limit {
		t.Fatalf("right stage queue peaked at %d, want at most MaxInFlight=%d", max, limit)
	}
	t.Logf("right stage queue peak %d (MaxInFlight %d)", max, cfg.MaxInFlight)
}
