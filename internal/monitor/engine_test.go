package monitor

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/enclave"
	"repro/internal/securechan"
	"repro/internal/tensor"
	"repro/internal/transcript"
	"repro/internal/wire"
)

// enclaveTestPlatform and enclaveTestImage give tests a minimal simulated
// platform without repeating boilerplate.
func enclaveTestPlatform() (*enclave.Platform, error) {
	return enclave.NewPlatform("test-plat", enclave.SGX1, 1<<30)
}

func enclaveTestImage() enclave.Image {
	return enclave.Image{Name: "test-monitor", Code: []byte("m"), InitialPages: 1}
}

// fakeVariant serves wire batches on one end of a pipe, producing outputs
// via behave (return tensors, an error string for a simulated crash, or
// delay).
type fakeVariant struct {
	id     string
	behave func(batchID uint64, in map[string]*tensor.Tensor) (map[string]*tensor.Tensor, string)
	delay  time.Duration
	served atomic.Int64
}

// start launches the fake variant and returns the monitor-side handle.
func (f *fakeVariant) start(t *testing.T, partition int) *Handle {
	t.Helper()
	mon, varC := net.Pipe()
	mc, vc := securechan.Plain(mon), securechan.Plain(varC)
	go func() {
		for {
			msg, err := wire.Recv(vc)
			if err != nil {
				return
			}
			switch m := msg.(type) {
			case *wire.Batch:
				if f.delay > 0 {
					time.Sleep(f.delay)
				}
				outs, errStr := f.behave(m.ID, m.Tensors)
				f.served.Add(1)
				res := &wire.Result{ID: m.ID, Trace: m.Trace, VariantID: f.id, Err: errStr, Tensors: outs}
				if err := wire.Send(vc, res); err != nil {
					return
				}
			case *wire.Shutdown:
				_ = vc.Close()
				return
			}
		}
	}()
	return NewHandle(f.id, partition, "spec", mc)
}

// doubler returns a behavior that doubles the "x" input into "y", plus bias.
func doubler(bias float32) func(uint64, map[string]*tensor.Tensor) (map[string]*tensor.Tensor, string) {
	return func(_ uint64, in map[string]*tensor.Tensor) (map[string]*tensor.Tensor, string) {
		x := in["x"]
		out := x.Clone()
		out.Apply(func(v float32) float32 { return 2*v + bias })
		return map[string]*tensor.Tensor{"y": out}, ""
	}
}

// incrementer maps "y" to "z" = y+1.
func incrementer() func(uint64, map[string]*tensor.Tensor) (map[string]*tensor.Tensor, string) {
	return func(_ uint64, in map[string]*tensor.Tensor) (map[string]*tensor.Tensor, string) {
		y := in["y"]
		out := y.Clone()
		out.Apply(func(v float32) float32 { return v + 1 })
		return map[string]*tensor.Tensor{"z": out}, ""
	}
}

func input(v float32) map[string]*tensor.Tensor {
	return map[string]*tensor.Tensor{"x": tensor.MustFromSlice([]float32{v, v}, 2)}
}

func buildEngine(t *testing.T, cfg EngineConfig) *Engine {
	t.Helper()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	t.Cleanup(e.Stop)
	return e
}

func twoStageConfig(stage0 []*Handle, stage1 []*Handle) EngineConfig {
	return EngineConfig{
		GraphInputs:  []string{"x"},
		GraphOutputs: []string{"z"},
		Stages: []StageSpec{
			{Inputs: []string{"x"}, Outputs: []string{"y"}, Handles: stage0},
			{Inputs: []string{"y"}, Outputs: []string{"z"}, Handles: stage1},
		},
	}
}

func TestFastPathPipeline(t *testing.T) {
	v0 := &fakeVariant{id: "s0", behave: doubler(0)}
	v1 := &fakeVariant{id: "s1", behave: incrementer()}
	e := buildEngine(t, twoStageConfig([]*Handle{v0.start(t, 0)}, []*Handle{v1.start(t, 1)}))

	r, err := e.Infer(input(3))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Tensors["z"].At(0); got != 7 { // 2*3+1
		t.Fatalf("z = %v, want 7", got)
	}
	if evs := e.Events(); len(evs) != 0 {
		t.Fatalf("unexpected events %v", evs)
	}
}

func TestSlowPathUnanimousAgreement(t *testing.T) {
	vs := []*fakeVariant{
		{id: "a", behave: doubler(0)},
		{id: "b", behave: doubler(0)},
		{id: "c", behave: doubler(0)},
	}
	handles := []*Handle{vs[0].start(t, 0), vs[1].start(t, 0), vs[2].start(t, 0)}
	v1 := &fakeVariant{id: "s1", behave: incrementer()}
	e := buildEngine(t, twoStageConfig(handles, []*Handle{v1.start(t, 1)}))

	r, err := e.Infer(input(2))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Tensors["z"].At(0); got != 5 {
		t.Fatalf("z = %v, want 5", got)
	}
}

// TestTranscriptLeafPerBatch checks that an engine with a transcript
// recorder attached records one leaf per delivered batch, on the fast path
// (one variant per stage) and the voting path (three).
func TestTranscriptLeafPerBatch(t *testing.T) {
	for _, n := range []int{1, 3} {
		rec := transcript.NewRecorder(transcript.Config{SampleEvery: -1})
		s0, s1 := make([]*Handle, n), make([]*Handle, n)
		for i := range s0 {
			s0[i] = (&fakeVariant{id: string(rune('a' + i)), behave: doubler(0)}).start(t, 0)
			s1[i] = (&fakeVariant{id: string(rune('x' + i)), behave: incrementer()}).start(t, 1)
		}
		cfg := twoStageConfig(s0, s1)
		cfg.Transcript = rec
		e := buildEngine(t, cfg)
		r, err := e.Infer(input(3))
		if err != nil {
			t.Fatalf("%d variants: %v", n, err)
		}
		if got := r.Tensors["z"].At(0); got != 7 {
			t.Fatalf("%d variants: z = %v, want 7", n, got)
		}
		deadline := time.Now().Add(2 * time.Second)
		for rec.Size() == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if got := rec.Size(); got != 1 {
			t.Fatalf("%d variants: transcript recorded %d leaves, want 1", n, got)
		}
		rec.Close()
	}
}

func TestDivergenceHalts(t *testing.T) {
	vs := []*fakeVariant{
		{id: "good1", behave: doubler(0)},
		{id: "evil", behave: doubler(100)}, // corrupted outputs
		{id: "good2", behave: doubler(0)},
	}
	handles := []*Handle{vs[0].start(t, 0), vs[1].start(t, 0), vs[2].start(t, 0)}
	v1 := &fakeVariant{id: "s1", behave: incrementer()}
	cfg := twoStageConfig(handles, []*Handle{v1.start(t, 1)})
	cfg.Response = Halt
	e := buildEngine(t, cfg)

	_, err := e.Infer(input(1))
	if err == nil {
		t.Fatal("divergence under Halt must fail the batch")
	}
	evs := e.Events()
	if len(evs) == 0 || evs[0].Kind != EventDivergence {
		t.Fatalf("events = %v", evs)
	}
	if len(evs[0].Variants) != 1 || evs[0].Variants[0] != "evil" {
		t.Fatalf("dissenters = %v, want [evil]", evs[0].Variants)
	}
	// Engine is halted: further submissions fail fast.
	if _, err := e.Submit(input(1)); err == nil {
		t.Fatal("halted engine accepted a new batch")
	}
}

// TestHaltedEngineLadder pins the health signal of a fatal halt: the
// variants are all alive, so no departure demotes a stage, yet the engine
// rejects every Submit. By the time the failed batch is delivered, Ladder
// must read halted on every stage and a demotion event per stage must be
// published for status subscribers.
func TestHaltedEngineLadder(t *testing.T) {
	vs := []*fakeVariant{
		{id: "a", behave: doubler(0)},
		{id: "b", behave: doubler(100)},
		{id: "c", behave: doubler(200)},
	}
	handles := []*Handle{vs[0].start(t, 0), vs[1].start(t, 0), vs[2].start(t, 0)}
	v1 := &fakeVariant{id: "s1", behave: incrementer()}
	cfg := twoStageConfig(handles, []*Handle{v1.start(t, 1)})
	cfg.Response = Halt
	e := buildEngine(t, cfg)
	sub := e.EventBus().Subscribe(16)
	defer sub.Close()

	if _, err := e.Infer(input(1)); err == nil {
		t.Fatal("divergence under Halt must fail the batch")
	}
	if got := e.Ladder(); len(got) != 2 || got[0] != LadderHalted || got[1] != LadderHalted {
		t.Fatalf("ladder after halt = %v, want [halted halted]", got)
	}
	demoted := map[int]bool{}
	for len(demoted) < 2 {
		select {
		case ev := <-sub.C:
			if ev.Kind == EventLadderDemoted {
				demoted[ev.Stage] = true
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("demotion events for stages %v, want 0 and 1", demoted)
		}
	}
	if _, err := e.Submit(input(1)); err == nil {
		t.Fatal("halted engine accepted a new batch")
	}
}

func TestDivergenceDropVariantRecovers(t *testing.T) {
	evil := &fakeVariant{id: "evil", behave: doubler(100)}
	vs := []*fakeVariant{
		{id: "good1", behave: doubler(0)},
		evil,
		{id: "good2", behave: doubler(0)},
	}
	handles := []*Handle{vs[0].start(t, 0), vs[1].start(t, 0), vs[2].start(t, 0)}
	v1 := &fakeVariant{id: "s1", behave: incrementer()}
	cfg := twoStageConfig(handles, []*Handle{v1.start(t, 1)})
	cfg.Response = DropVariant
	e := buildEngine(t, cfg)

	r, err := e.Infer(input(4))
	if err != nil {
		t.Fatalf("DropVariant must recover with the majority: %v", err)
	}
	if got := r.Tensors["z"].At(0); got != 9 { // clean value
		t.Fatalf("z = %v, want 9 (clean majority)", got)
	}
	kinds := map[EventKind]int{}
	for _, ev := range e.Events() {
		kinds[ev.Kind]++
	}
	if kinds[EventDivergence] == 0 || kinds[EventVariantDropped] == 0 {
		t.Fatalf("events = %v", e.Events())
	}
	// Follow-up batch runs without the dropped variant and stays clean.
	servedBefore := evil.served.Load()
	r2, err := e.Infer(input(5))
	if err != nil {
		t.Fatal(err)
	}
	if got := r2.Tensors["z"].At(0); got != 11 {
		t.Fatalf("follow-up z = %v, want 11", got)
	}
	if evil.served.Load() != servedBefore {
		t.Fatal("dropped variant still received batches")
	}
}

func TestCrashedVariantIsDissent(t *testing.T) {
	vs := []*fakeVariant{
		{id: "good1", behave: doubler(0)},
		{id: "crasher", behave: func(uint64, map[string]*tensor.Tensor) (map[string]*tensor.Tensor, string) {
			return nil, "segfault"
		}},
		{id: "good2", behave: doubler(0)},
	}
	handles := []*Handle{vs[0].start(t, 0), vs[1].start(t, 0), vs[2].start(t, 0)}
	v1 := &fakeVariant{id: "s1", behave: incrementer()}
	cfg := twoStageConfig(handles, []*Handle{v1.start(t, 1)})
	cfg.Response = ReportOnly
	e := buildEngine(t, cfg)

	r, err := e.Infer(input(1))
	if err != nil {
		t.Fatalf("majority should carry the batch: %v", err)
	}
	if got := r.Tensors["z"].At(0); got != 3 {
		t.Fatalf("z = %v, want 3", got)
	}
	evs := e.Events()
	if len(evs) == 0 || evs[0].Variants[0] != "crasher" {
		t.Fatalf("events = %v", evs)
	}
}

func TestAsyncForwardsOnQuorumBeforeStraggler(t *testing.T) {
	slow := &fakeVariant{id: "slow", behave: doubler(0), delay: 300 * time.Millisecond}
	vs := []*fakeVariant{
		{id: "fast1", behave: doubler(0)},
		{id: "fast2", behave: doubler(0)},
		slow,
	}
	handles := []*Handle{vs[0].start(t, 0), vs[1].start(t, 0), vs[2].start(t, 0)}
	v1 := &fakeVariant{id: "s1", behave: incrementer()}
	cfg := twoStageConfig(handles, []*Handle{v1.start(t, 1)})
	cfg.Async = true
	e := buildEngine(t, cfg)

	start := time.Now()
	r, err := e.Infer(input(1))
	if err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 250*time.Millisecond {
		t.Fatalf("async took %v; quorum should release before the 300ms straggler", el)
	}
	if got := r.Tensors["z"].At(0); got != 3 {
		t.Fatalf("z = %v", got)
	}
}

func TestAsyncLateDissentDetected(t *testing.T) {
	lateEvil := &fakeVariant{id: "late-evil", behave: doubler(50), delay: 100 * time.Millisecond}
	vs := []*fakeVariant{
		{id: "fast1", behave: doubler(0)},
		{id: "fast2", behave: doubler(0)},
		lateEvil,
	}
	handles := []*Handle{vs[0].start(t, 0), vs[1].start(t, 0), vs[2].start(t, 0)}
	v1 := &fakeVariant{id: "s1", behave: incrementer()}
	cfg := twoStageConfig(handles, []*Handle{v1.start(t, 1)})
	cfg.Async = true
	cfg.Response = ReportOnly
	e := buildEngine(t, cfg)

	r, err := e.Infer(input(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Tensors["z"].At(0); got != 3 {
		t.Fatalf("z = %v (quorum output must be clean)", got)
	}
	// The straggler's dissent surfaces retroactively.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		for _, ev := range e.Events() {
			if ev.Kind == EventLateDissent && ev.Variants[0] == "late-evil" {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("late dissent never recorded; events = %v", e.Events())
}

func TestVariantConnectionLoss(t *testing.T) {
	// A variant whose connection dies mid-run is detected and, with a
	// single-variant stage, fails the batch.
	mon, varC := net.Pipe()
	mc := securechan.Plain(mon)
	go func() {
		vc := securechan.Plain(varC)
		if _, err := wire.Recv(vc); err == nil {
			_ = varC.Close() // die on the first batch
		}
	}()
	h := NewHandle("flaky", 0, "spec", mc)
	cfg := EngineConfig{
		GraphInputs:  []string{"x"},
		GraphOutputs: []string{"y"},
		Stages:       []StageSpec{{Inputs: []string{"x"}, Outputs: []string{"y"}, Handles: []*Handle{h}}},
		Response:     ReportOnly,
	}
	e := buildEngine(t, cfg)
	if _, err := e.Infer(input(1)); err == nil {
		t.Fatal("batch should fail when its only variant dies")
	}
	found := false
	for _, ev := range e.Events() {
		if ev.Kind == EventVariantDown {
			found = true
		}
	}
	if !found {
		t.Fatalf("no VariantDown event: %v", e.Events())
	}
}

func TestPipelinedOrderingAndCompleteness(t *testing.T) {
	v0 := &fakeVariant{id: "s0", behave: doubler(0)}
	v1 := &fakeVariant{id: "s1", behave: incrementer()}
	e := buildEngine(t, twoStageConfig([]*Handle{v0.start(t, 0)}, []*Handle{v1.start(t, 1)}))

	const n = 16
	want := make(map[uint64]float32, n)
	wantCh := make(chan struct{})
	go func() {
		defer close(wantCh)
		for i := 0; i < n; i++ {
			id, err := e.Submit(input(float32(i)))
			if err != nil {
				t.Error(err)
				return
			}
			want[id] = 2*float32(i) + 1
		}
	}()
	seen := map[uint64]float32{}
	for i := 0; i < n; i++ {
		r := <-e.Outputs()
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		seen[r.ID] = r.Tensors["z"].At(0)
	}
	<-wantCh
	if len(seen) != n {
		t.Fatalf("got %d unique batches, want %d", len(seen), n)
	}
	for id, z := range seen {
		if z != want[id] {
			t.Fatalf("batch %d: z = %v, want %v (cross-batch mixup)", id, z, want[id])
		}
	}
}

func TestEngineConfigValidation(t *testing.T) {
	if _, err := NewEngine(EngineConfig{}); err == nil {
		t.Fatal("no stages accepted")
	}
	if _, err := NewEngine(EngineConfig{Stages: []StageSpec{{}}}); err == nil {
		t.Fatal("stage without variants accepted")
	}
}

func TestMVXConfigParseValidate(t *testing.T) {
	cfg := &MVXConfig{
		Model: "m",
		Plans: []PartitionPlan{{Variants: []string{"a"}}, {Variants: []string{"a", "b"}}},
		Vote:  check.Majority,
	}
	b, err := cfg.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseConfig(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Model != "m" || len(got.Plans) != 2 || !got.Plans[1].MVX() || got.Plans[0].MVX() {
		t.Fatalf("parsed = %+v", got)
	}
	if _, err := ParseConfig([]byte(`{"plans":[]}`)); !errors.Is(err, ErrConfig) {
		t.Fatalf("empty plans: got %v", err)
	}
	if _, err := ParseConfig([]byte(`{"plans":[{"variants":[]}]}`)); !errors.Is(err, ErrConfig) {
		t.Fatalf("empty variants: got %v", err)
	}
	if _, err := ParseConfig([]byte(`nope`)); err == nil {
		t.Fatal("junk accepted")
	}
}

// TestDAGStageRouting exercises non-chain partition topologies: stage 0
// feeds stages 1 and 2 in parallel; stage 3 joins both branches. The router
// must dispatch each stage exactly when all of its inputs exist.
func TestDAGStageRouting(t *testing.T) {
	src := &fakeVariant{id: "src", behave: func(_ uint64, in map[string]*tensor.Tensor) (map[string]*tensor.Tensor, string) {
		x := in["x"].Clone()
		return map[string]*tensor.Tensor{"a": x, "b": x.Clone()}, ""
	}}
	left := &fakeVariant{id: "left", behave: func(_ uint64, in map[string]*tensor.Tensor) (map[string]*tensor.Tensor, string) {
		out := in["a"].Clone()
		out.Apply(func(v float32) float32 { return v * 2 })
		return map[string]*tensor.Tensor{"l": out}, ""
	}}
	right := &fakeVariant{id: "right", behave: func(_ uint64, in map[string]*tensor.Tensor) (map[string]*tensor.Tensor, string) {
		out := in["b"].Clone()
		out.Apply(func(v float32) float32 { return v * 3 })
		return map[string]*tensor.Tensor{"r": out}, ""
	}}
	join := &fakeVariant{id: "join", behave: func(_ uint64, in map[string]*tensor.Tensor) (map[string]*tensor.Tensor, string) {
		out := in["l"].Clone()
		for i, v := range in["r"].Data() {
			out.Data()[i] += v
		}
		return map[string]*tensor.Tensor{"z": out}, ""
	}}
	cfg := EngineConfig{
		GraphInputs:  []string{"x"},
		GraphOutputs: []string{"z"},
		Stages: []StageSpec{
			{Inputs: []string{"x"}, Outputs: []string{"a", "b"}, Handles: []*Handle{src.start(t, 0)}},
			{Inputs: []string{"a"}, Outputs: []string{"l"}, Handles: []*Handle{left.start(t, 1)}},
			{Inputs: []string{"b"}, Outputs: []string{"r"}, Handles: []*Handle{right.start(t, 2)}},
			{Inputs: []string{"l", "r"}, Outputs: []string{"z"}, Handles: []*Handle{join.start(t, 3)}},
		},
	}
	e := buildEngine(t, cfg)
	r, err := e.Infer(input(2))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Tensors["z"].At(0); got != 10 { // 2*2 + 3*2
		t.Fatalf("z = %v, want 10", got)
	}
}

// TestMaxInFlightBackpressure checks Submit blocks at the pipeline depth and
// unblocks as results drain.
func TestMaxInFlightBackpressure(t *testing.T) {
	slow := &fakeVariant{id: "slow", behave: doubler(0), delay: 30 * time.Millisecond}
	cfg := EngineConfig{
		GraphInputs:  []string{"x"},
		GraphOutputs: []string{"y"},
		Stages: []StageSpec{
			{Inputs: []string{"x"}, Outputs: []string{"y"}, Handles: []*Handle{slow.start(t, 0)}},
		},
		MaxInFlight: 2,
	}
	e := buildEngine(t, cfg)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 4; i++ {
			if _, err := e.Submit(input(1)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	select {
	case <-done:
		t.Fatal("4 submissions completed instantly despite MaxInFlight=2")
	case <-time.After(20 * time.Millisecond):
	}
	for i := 0; i < 4; i++ {
		r := <-e.Outputs()
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	<-done
}

func TestCombinedAttestationAfterStartRejected(t *testing.T) {
	v0 := &fakeVariant{id: "s0", behave: doubler(0)}
	h := v0.start(t, 0)
	p, err := enclaveTestPlatform()
	if err != nil {
		t.Fatal(err)
	}
	encl, err := p.Launch(enclaveTestImage())
	if err != nil {
		t.Fatal(err)
	}
	ver := enclave.NewVerifier()
	ver.Trust(p)
	m := New(encl, ver)
	m.handles["s0"] = h
	m.bindings = append(m.bindings, BindingRecord{VariantID: "s0"})
	cfgJSON, _ := (&MVXConfig{Plans: []PartitionPlan{{Variants: []string{"spec"}}}}).Marshal()
	if err := m.Provision(&wire.Provision{Nonce: []byte{1}, Config: cfgJSON}); err != nil {
		t.Fatal(err)
	}
	eng, err := m.BuildEngine([]string{"x"}, []string{"y"},
		[]StageSpec{{Inputs: []string{"x"}, Outputs: []string{"y"}}})
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	defer eng.Stop()
	if _, err := m.CombinedAttestation([]byte{9}); err == nil {
		t.Fatal("combined attestation allowed after engine start")
	}
}

func TestProvisionValidation(t *testing.T) {
	p, err := enclaveTestPlatform()
	if err != nil {
		t.Fatal(err)
	}
	encl, err := p.Launch(enclaveTestImage())
	if err != nil {
		t.Fatal(err)
	}
	m := New(encl, enclave.NewVerifier())
	good, _ := (&MVXConfig{Plans: []PartitionPlan{{Variants: []string{"a"}}}}).Marshal()
	if err := m.Provision(&wire.Provision{Config: good}); err == nil {
		t.Fatal("missing nonce accepted")
	}
	if err := m.Provision(&wire.Provision{Nonce: []byte{1}, Config: []byte("junk")}); err == nil {
		t.Fatal("junk config accepted")
	}
	if err := m.Provision(&wire.Provision{Nonce: []byte{1}, Config: good,
		Keys: map[string][]byte{"set0/p0/a": {1, 2}}}); err != nil {
		t.Fatal(err)
	}
	if k, ok := m.KeyFor("set0/p0/a"); !ok || len(k) != 2 {
		t.Fatal("provisioned key not retrievable")
	}
}

func TestNoMajorityFailsBatchWithoutHalting(t *testing.T) {
	// Two variants disagreeing: no majority exists, so the batch fails
	// under ReportOnly, but the engine keeps serving later batches from the
	// surviving consensus once the dissenter is dropped.
	vs := []*fakeVariant{
		{id: "alpha", behave: doubler(0)},
		{id: "beta", behave: doubler(50)},
	}
	handles := []*Handle{vs[0].start(t, 0), vs[1].start(t, 0)}
	v1 := &fakeVariant{id: "s1", behave: incrementer()}
	cfg := twoStageConfig(handles, []*Handle{v1.start(t, 1)})
	cfg.Response = ReportOnly
	e := buildEngine(t, cfg)

	if _, err := e.Infer(input(1)); err == nil {
		t.Fatal("2-way split must fail the batch (no agreeing majority)")
	}
	// Engine not halted under ReportOnly: a further batch still runs (and
	// fails the same way — but it is accepted and processed).
	if _, err := e.Submit(input(2)); err != nil {
		t.Fatalf("engine halted under ReportOnly: %v", err)
	}
	r := <-e.Outputs()
	if r.Err == nil {
		t.Fatal("second split batch unexpectedly succeeded")
	}
}
