package mvtee

import (
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/monitor"
)

// TestChaosHangQuorumAndHotReplacement is the end-to-end robustness
// scenario: one stage-1 variant hangs mid-batch, the straggler deadline
// expires, the batch completes via majority quorum well before the hang
// resolves, and the Recover response hot-replaces the dead variant from the
// pre-established spare pool — with the promotion appended to the monitor's
// binding log and the stage climbing back to the full ladder rung.
func TestChaosHangQuorumAndHotReplacement(t *testing.T) {
	bundle, err := BuildBundle(OfflineConfig{
		ModelName:        "mnasnet",
		PartitionTargets: []int{3},
		Specs:            RealSetupSpecs(),
	})
	if err != nil {
		t.Fatal(err)
	}
	plans := []PartitionPlan{
		{Variants: []string{"ort-cpu"}},
		{Variants: []string{"ort-cpu", "ort-altep", "tvm-graph"}},
		{Variants: []string{"ort-cpu"}},
	}
	spares := []PartitionPlan{
		{},
		{Variants: []string{"ort-altep"}},
		{},
	}
	const (
		hungID  = "p1-ort-altep-1"
		spareID = "spare-p1-ort-altep-0"
	)
	// Stage 1 of this partitioning has exactly two Add nodes; hanging only
	// those keeps the stalled variant's eventual wake-up (2 × hangDelay,
	// long after it has been retired) bounded for teardown.
	const hangDelay = 1500 * time.Millisecond
	const stageTimeout = 300 * time.Millisecond
	inj := Injection{Class: FaultHang, TargetOp: "Add", Latency: hangDelay, After: 1}

	dep, err := Deploy(bundle, 0, DeployConfig{
		MVX: &MVXConfig{
			Plans:          plans,
			Spares:         spares,
			Response:       Recover,
			Vote:           check.Majority,
			StageTimeoutMS: int(stageTimeout / time.Millisecond),
			Criteria:       []Criterion{{Metric: AllClose, RTol: 5e-2, ATol: 1e-3}},
		},
		Encrypt:        true,
		VariantOptions: ArmVariantIDs(inj, hungID),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()

	if got := dep.Monitor.SpareCount(); got != 1 {
		t.Fatalf("SpareCount() = %d, want 1", got)
	}

	in := NewTensor(1, 3, 32, 32)
	rng := rand.New(rand.NewPCG(7, 7))
	for i := range in.Data() {
		in.Data()[i] = float32(rng.NormFloat64())
	}
	feed := map[string]*Tensor{"image": in}

	// Batch 1: grace period, everyone healthy.
	if res, err := dep.Infer(feed); err != nil || res.Err != nil {
		t.Fatalf("batch 1: %v / %v", err, res.Err)
	}

	// Batch 2: the armed variant hangs mid-stage. The stage deadline must
	// expire and the quorum complete the batch far sooner than the hang
	// itself (2 × hangDelay) would allow.
	start := time.Now()
	res, err := dep.Infer(feed)
	elapsed := time.Since(start)
	if err != nil || res.Err != nil {
		t.Fatalf("batch 2 should survive the straggler via quorum: %v / %v", err, res.Err)
	}
	if res.Tensors["logits"] == nil || res.Tensors["logits"].HasNaN() {
		t.Fatalf("batch 2: bad output %v", res.Tensors)
	}
	if elapsed >= hangDelay {
		t.Fatalf("batch 2 took %v — waited out the straggler instead of completing at the %v stage deadline", elapsed, stageTimeout)
	}

	// The timeout and the asynchronous hot replacement must surface as
	// events: the hung variant timed out, the spare was promoted.
	waitForEvent(t, dep, EventVariantTimeout, hungID)
	waitForEvent(t, dep, EventVariantReplaced, spareID)

	// The promotion is appended to the binding log (§4.3): the spare's
	// fresh record is live, the dead variant's record is marked replaced.
	var spareBound, hungRetired bool
	for _, rec := range dep.Monitor.Bindings() {
		switch rec.VariantID {
		case spareID:
			spareBound = !rec.Replaced
		case hungID:
			hungRetired = rec.Replaced
		}
	}
	if !spareBound {
		t.Fatalf("no live binding record for promoted spare %s: %+v", spareID, dep.Monitor.Bindings())
	}
	if !hungRetired {
		t.Fatalf("retired variant %s not marked replaced in binding log", hungID)
	}
	if got := dep.Monitor.SpareCount(); got != 0 {
		t.Fatalf("SpareCount() = %d after promotion, want 0", got)
	}

	// The stage must climb back to the full rung once the spare is serving.
	deadline := time.Now().Add(5 * time.Second)
	for dep.Engine.Ladder()[1] != monitor.LadderFull {
		if time.Now().After(deadline) {
			t.Fatalf("stage 1 ladder = %v, never recovered to full", dep.Engine.Ladder()[1])
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Steady state with the replacement: no fresh divergences.
	divergences := countEvents(dep, EventDivergence)
	for i := 0; i < 3; i++ {
		if res, err := dep.Infer(feed); err != nil || res.Err != nil {
			t.Fatalf("post-replacement batch %d: %v / %v", i, err, res.Err)
		}
	}
	if got := countEvents(dep, EventDivergence); got != divergences {
		t.Fatalf("replacement variant diverges: %d new divergence events", got-divergences)
	}
}

// TestChaosProvisionedSpareFeedsRecovery starts with an EMPTY spare pool,
// grows it on demand through the monitor's spare factory (the adaptive
// controller's scale-up actuator), and then kills a variant: the hot
// replacement must promote the synthesized spare, proving an on-demand
// provision is a first-class recovery asset, not just a pool counter. The
// provision itself must surface as EventSpareProvisioned.
func TestChaosProvisionedSpareFeedsRecovery(t *testing.T) {
	bundle, err := BuildBundle(OfflineConfig{
		ModelName:        "mnasnet",
		PartitionTargets: []int{3},
		Specs:            RealSetupSpecs(),
	})
	if err != nil {
		t.Fatal(err)
	}
	plans := []PartitionPlan{
		{Variants: []string{"ort-cpu"}},
		{Variants: []string{"ort-cpu", "ort-altep", "tvm-graph"}},
		{Variants: []string{"ort-cpu"}},
	}
	const hungID = "p1-ort-altep-1"
	const hangDelay = 1500 * time.Millisecond
	const stageTimeout = 300 * time.Millisecond
	inj := Injection{Class: FaultHang, TargetOp: "Add", Latency: hangDelay, After: 1}

	dep, err := Deploy(bundle, 0, DeployConfig{
		MVX: &MVXConfig{
			Plans:          plans, // no Spares: the pool starts empty
			Response:       Recover,
			Vote:           check.Majority,
			StageTimeoutMS: int(stageTimeout / time.Millisecond),
			Criteria:       []Criterion{{Metric: AllClose, RTol: 5e-2, ATol: 1e-3}},
		},
		Encrypt:        true,
		VariantOptions: ArmVariantIDs(inj, hungID),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()

	if got := dep.Monitor.SpareCount(); got != 0 {
		t.Fatalf("SpareCount() = %d, want 0 (empty pool)", got)
	}
	// Scale up on demand: the factory synthesizes a fresh pre-attested spare
	// for the MVX stage and announces it on the event stream.
	if err := dep.Monitor.ProvisionSpare(1); err != nil {
		t.Fatalf("ProvisionSpare: %v", err)
	}
	if got := dep.Monitor.SpareCount(); got != 1 {
		t.Fatalf("SpareCount() = %d after provision, want 1", got)
	}
	if got := countEvents(dep, monitor.EventSpareProvisioned); got != 1 {
		t.Fatalf("EventSpareProvisioned count = %d, want 1", got)
	}
	// Deployment.ProvisionSpare cycles specs: seq 1 of partition 1's plan.
	const spareID = "autospare-p1-ort-altep-1"

	in := NewTensor(1, 3, 32, 32)
	rng := rand.New(rand.NewPCG(11, 11))
	for i := range in.Data() {
		in.Data()[i] = float32(rng.NormFloat64())
	}
	feed := map[string]*Tensor{"image": in}

	// Batch 1: grace period. Batch 2: the armed variant hangs, the straggler
	// deadline expires, and recovery promotes the synthesized spare.
	for i := 0; i < 2; i++ {
		if res, err := dep.Infer(feed); err != nil || res.Err != nil {
			t.Fatalf("batch %d: %v / %v", i+1, err, res.Err)
		}
	}
	waitForEvent(t, dep, EventVariantTimeout, hungID)
	waitForEvent(t, dep, EventVariantReplaced, spareID)
	if got := dep.Monitor.SpareCount(); got != 0 {
		t.Fatalf("SpareCount() = %d after promotion, want 0", got)
	}
	// The stage must climb back to full strength on the synthesized spare.
	deadline := time.Now().Add(5 * time.Second)
	for dep.Engine.Ladder()[1] != monitor.LadderFull {
		if time.Now().After(deadline) {
			t.Fatalf("stage 1 ladder = %v, never recovered to full", dep.Engine.Ladder()[1])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitForEvent polls the engine's event log until an event of the kind
// naming the variant appears (replacement runs asynchronously to Infer).
func waitForEvent(t *testing.T, dep *Deployment, kind monitor.EventKind, variantID string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		for _, ev := range dep.Engine.Events() {
			if ev.Kind != kind {
				continue
			}
			for _, v := range ev.Variants {
				if v == variantID {
					return
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("event %v for %s never recorded; have %+v", kind, variantID, dep.Engine.Events())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func countEvents(dep *Deployment, kind monitor.EventKind) int {
	n := 0
	for _, ev := range dep.Engine.Events() {
		if ev.Kind == kind {
			n++
		}
	}
	return n
}

// TestChaosHangPipelined hangs one MVX variant while several batches are in
// flight at once. The stage worker must not wait for the hung variant to
// read its next batch: every batch has to finish at the stage deadline, not
// after the hang.
func TestChaosHangPipelined(t *testing.T) {
	bundle, err := BuildBundle(OfflineConfig{
		ModelName:        "mnasnet",
		PartitionTargets: []int{3},
		Specs:            RealSetupSpecs(),
	})
	if err != nil {
		t.Fatal(err)
	}
	plans := []PartitionPlan{
		{Variants: []string{"ort-cpu"}},
		{Variants: []string{"ort-cpu", "ort-altep", "tvm-graph"}},
		{Variants: []string{"ort-cpu"}},
	}
	const hungID = "p1-ort-altep-1"
	const hangDelay = 1500 * time.Millisecond
	const stageTimeout = 300 * time.Millisecond
	inj := Injection{Class: FaultHang, TargetOp: "Add", Latency: hangDelay, After: 1}
	dep, err := Deploy(bundle, 0, DeployConfig{
		MVX: &MVXConfig{
			Plans:          plans,
			Response:       Recover,
			Vote:           check.Majority,
			StageTimeoutMS: int(stageTimeout / time.Millisecond),
			Criteria:       []Criterion{{Metric: AllClose, RTol: 5e-2, ATol: 1e-3}},
		},
		Encrypt:        true,
		VariantOptions: ArmVariantIDs(inj, hungID),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()

	rng := rand.New(rand.NewPCG(9, 9))
	feed := func() map[string]*Tensor {
		in := NewTensor(1, 3, 32, 32)
		for i := range in.Data() {
			in.Data()[i] = float32(rng.NormFloat64())
		}
		return map[string]*Tensor{"image": in}
	}
	// Batch 1: grace period, everyone healthy.
	if res, err := dep.Infer(feed()); err != nil || res.Err != nil {
		t.Fatalf("batch 1: %v / %v", err, res.Err)
	}

	// Three batches back to back; the armed variant hangs on the first.
	batches := []map[string]*Tensor{feed(), feed(), feed()}
	start := time.Now()
	results, err := dep.Stream(batches)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("pipelined batch %d: %v", i, res.Err)
		}
	}
	if limit := 2 * stageTimeout; elapsed >= limit {
		t.Fatalf("%d pipelined batches took %v, want < %v: the stage waited for the hung variant", len(batches), elapsed, limit)
	}
}

// TestStreamReturnsWhenEngineHalts streams more batches than the pipeline
// holds through an engine that halts mid-stream: a stage-1 variant corrupts
// its output from its third batch on, the synchronous unanimous vote fails
// the stage, and the Halt response stops the engine accepting work. Stream
// must return the results of the batches it did submit plus the Submit
// failure, instead of waiting for results of batches that never entered the
// engine.
func TestStreamReturnsWhenEngineHalts(t *testing.T) {
	bundle, err := BuildBundle(OfflineConfig{
		ModelName:        "mnasnet",
		PartitionTargets: []int{3},
		Specs:            RealSetupSpecs(),
	})
	if err != nil {
		t.Fatal(err)
	}
	plans := []PartitionPlan{
		{Variants: []string{"ort-cpu"}},
		{Variants: []string{"ort-cpu", "ort-altep", "tvm-graph"}},
		{Variants: []string{"ort-cpu"}},
	}
	inj := Injection{Class: FaultCorruptAfterQuorum, After: 2}
	dep, err := Deploy(bundle, 0, DeployConfig{
		MVX: &MVXConfig{
			Plans:    plans,
			Response: Halt,
			Criteria: []Criterion{{Metric: AllClose, RTol: 5e-2, ATol: 1e-3}},
		},
		Encrypt:        true,
		VariantOptions: ArmVariantIDs(inj, "p1-ort-altep-1"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()

	rng := rand.New(rand.NewPCG(5, 5))
	batches := make([]map[string]*Tensor, 20)
	for i := range batches {
		in := NewTensor(1, 3, 32, 32)
		for j := range in.Data() {
			in.Data()[j] = float32(rng.NormFloat64())
		}
		batches[i] = map[string]*Tensor{"image": in}
	}
	type streamed struct {
		results []monitor.BatchResult
		err     error
	}
	done := make(chan streamed, 1)
	go func() {
		results, err := dep.Stream(batches)
		done <- streamed{results, err}
	}()
	var got streamed
	select {
	case got = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Stream still blocked 10s after the engine halted")
	}
	if got.err == nil {
		t.Fatal("Stream reported no error although the engine halted")
	}
	if len(got.results) == 0 || len(got.results) >= len(batches) {
		t.Fatalf("got %d results, want one per submitted batch (fewer than %d)", len(got.results), len(batches))
	}
	failed := 0
	for _, r := range got.results {
		if r.Err != nil {
			failed++
		}
	}
	if failed == 0 {
		t.Fatal("no streamed batch carries the divergence that halted the engine")
	}
}
