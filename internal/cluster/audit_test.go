package cluster

import (
	"fmt"
	"net/http/httptest"
	"testing"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/enclave"
	"repro/internal/monitor"
	"repro/internal/telemetry"
	"repro/internal/tensor"
	"repro/internal/transcript"
	"repro/internal/wire"
)

// TestClusterAuditEndToEnd drives a 2-replica router with a live transcript
// recorder signed by the routing tier's identity enclave, then audits the
// result the way an external operator would: fetch documents over HTTP from
// the /audit handler and verify them offline with an Auditor built from
// nothing but the trust anchors (platform identity, router measurement,
// model digest). Covers the clean path (head, inclusion by trace,
// consistency from a pinned head), the vote record (agree and abstain both
// land in leaves), the abort path (a diverged batch leaves no leaf), and
// forged-head rejection.
func TestClusterAuditEndToEnd(t *testing.T) {
	plat, err := enclave.NewPlatform("cluster-audit-plat", enclave.SGX2, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	encl, err := plat.Launch(core.RouterImage())
	if err != nil {
		t.Fatal(err)
	}
	trusted := enclave.NewVerifier()
	trusted.Trust(plat)

	var model transcript.Hash
	model[0] = 0x5a
	rec := transcript.NewRecorder(transcript.Config{
		Signer:      encl,
		Model:       model,
		HeadEvery:   1,
		SampleEvery: -1,
		Metrics:     telemetry.NewRegistry(),
	})
	defer rec.Close()

	a, b := newFake("a"), newFake("b")
	r, err := NewRouter(RouterConfig{
		Replicas: []Replica{a, b}, Verify: 1, Sync: true,
		Metrics: telemetry.NewRegistry(), Transcript: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// runBatch submits one batch, has the leader report a stage-0 digest and
	// its result, and the follower vote per verdict. Returns the batch ID,
	// the delivered outputs and the follower's replica ID.
	runBatch := func(val float32, verdict string) (uint64, map[string]*tensor.Tensor, string) {
		t.Helper()
		before := a.subCount() + b.subCount()
		id, err := r.Submit(testInputs(val))
		if err != nil {
			t.Fatal(err)
		}
		waitUntil(t, "both submissions", func() bool { return a.subCount()+b.subCount() == before+2 })
		lead, follow := a, b
		if a.lastSub(t).verify {
			lead, follow = b, a
		}
		outs := testOutputs(val)
		want := check.DigestOf(outs)
		// Best-effort checkpoint plane first, then the result (same event
		// channel, so the router processes them in order).
		lead.post(replicaEvent{vote: &wire.Digest{ID: id, Stage: 0, Sum: want}})
		lead.post(replicaEvent{res: &monitor.BatchResult{ID: id, Tensors: outs}})
		vote := &wire.Digest{ID: id, Stage: -1, Sum: want}
		switch verdict {
		case "abstain":
			vote.Sum = [32]byte{} // could not execute: zero sum, not dissent
		case "dissent":
			vote.Sum[0] ^= 0xff // the router compares sums: a differing one dissents
		}
		follow.post(replicaEvent{vote: vote})
		return id, outs, follow.id
	}

	// Batch 1: unanimous. Delivers and appends leaf 0.
	id1, outs1, follower1 := runBatch(3, "agree")
	if row := readRow(t, r); row.Err != nil || row.ID != id1 {
		t.Fatalf("agree row = %+v, want clean id %d", row, id1)
	}
	waitUntil(t, "leaf 1", func() bool { return rec.Size() == 1 })
	pinned, err := rec.SignedHead(false)
	if err != nil {
		t.Fatal(err)
	}
	if pinned.Head.Size != 1 {
		t.Fatalf("pinned head size = %d, want 1", pinned.Head.Size)
	}

	// Batch 2: follower abstains. Still delivers; the abstention is recorded
	// in leaf 1 as a non-agreeing zero-sum vote.
	id2, _, follower2 := runBatch(4, "abstain")
	if row := readRow(t, r); row.Err != nil || row.ID != id2 {
		t.Fatalf("abstain row = %+v, want clean id %d", row, id2)
	}
	waitUntil(t, "leaf 2", func() bool { return rec.Size() == 2 })

	// Batch 3: follower dissents. The batch fails with ErrDivergence and is
	// aborted — diverged outputs never enter the audit log, the batch-ID gap
	// is the auditable trace.
	id3, _, _ := runBatch(5, "dissent")
	row := readRow(t, r)
	if row.Err == nil || row.ID != id3 {
		t.Fatalf("dissent row = %+v, want ErrDivergence id %d", row, id3)
	}
	if got := rec.Size(); got != 2 {
		t.Fatalf("log size after aborted batch = %d, want 2", got)
	}

	// The operator's side: HTTP audit endpoint + offline verification.
	srv := httptest.NewServer(transcript.Handler(rec, transcript.HandlerConfig{}))
	defer srv.Close()
	aud := &transcript.Auditor{
		Verifier:     trusted,
		Measurements: []enclave.Measurement{enclave.Measure(core.RouterImage())},
		Model:        model,
	}

	// Head document: signed by the router identity over both delivered leaves.
	headDoc, err := transcript.Fetch(srv.URL, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := aud.VerifyDoc(headDoc); err != nil {
		t.Fatalf("honest head rejected: %v", err)
	}
	if headDoc.Head.Head.Size != 2 || headDoc.Size != 2 {
		t.Fatalf("head covers %d of %d leaves, want 2 of 2", headDoc.Head.Head.Size, headDoc.Size)
	}

	// Inclusion by trace: leaf 0 carries the unanimous batch end to end.
	l0, _, err := rec.LeafAt(0)
	if err != nil {
		t.Fatal(err)
	}
	traceDoc, err := transcript.Fetch(srv.URL, fmt.Sprintf("trace=%016x", l0.Trace))
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := aud.VerifyDoc(traceDoc)
	if err != nil {
		t.Fatalf("inclusion by trace rejected: %v", err)
	}
	if leaf == nil || leaf.Batch != id1 {
		t.Fatalf("leaf = %+v, want batch %d", leaf, id1)
	}
	if check.Digest(leaf.Input) != check.DigestOf(testInputs(3)) {
		t.Fatal("leaf input digest does not bind the submitted tensors")
	}
	if check.Digest(leaf.Output) != check.DigestOf(outs1) {
		t.Fatal("leaf output digest does not bind the delivered tensors")
	}
	if len(leaf.Checkpoints) != 1 || check.Digest(leaf.Checkpoints[0]) != check.DigestOf(outs1) {
		t.Fatalf("leaf checkpoints = %v, want the leader's stage-0 digest", leaf.Checkpoints)
	}
	if len(leaf.Votes) != 1 || leaf.Votes[0].Replica != follower1 || !leaf.Votes[0].Agree {
		t.Fatalf("leaf votes = %+v, want one agree from %q", leaf.Votes, follower1)
	}

	// Leaf 1 records the abstention as a non-agreeing zero-sum vote.
	l1, _, err := rec.LeafAt(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(l1.Votes) != 1 || l1.Votes[0].Replica != follower2 || l1.Votes[0].Agree {
		t.Fatalf("abstain leaf votes = %+v, want one non-agree from %q", l1.Votes, follower2)
	}
	if l1.Votes[0].Sum != (check.Digest{}) {
		t.Fatal("abstention should carry a zero sum")
	}

	// Consistency: the head pinned after batch 1 must extend into the
	// current log, proving nothing was rewritten underneath it.
	consDoc, err := transcript.Fetch(srv.URL, fmt.Sprintf("consistency=%d", pinned.Head.Size))
	if err != nil {
		t.Fatal(err)
	}
	if err := aud.VerifyConsistencyWith(pinned.Head, consDoc); err != nil {
		t.Fatalf("pinned head does not extend: %v", err)
	}

	// Forged head: flipping the model binding breaks the report.
	forged := *headDoc
	forged.Head.Head.Model = transcript.Hash{0x99}
	if _, err := aud.VerifyDoc(&forged); err == nil {
		t.Fatal("model-forged head verified")
	}
	// An auditor with no trust anchors rejects even the honest document.
	stranger := &transcript.Auditor{Verifier: enclave.NewVerifier(), Model: model}
	if _, err := stranger.VerifyDoc(headDoc); err == nil {
		t.Fatal("untrusting auditor accepted the head")
	}
}
