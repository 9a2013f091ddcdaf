package transcript

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/attest"
	"repro/internal/check"
	"repro/internal/enclave"
	"repro/internal/tensor"
)

func testLeaf() Leaf {
	var in, out, c0, c1, v0 check.Digest
	in[0], out[0], c0[0], c1[0], v0[0] = 1, 2, 3, 4, 5
	return Leaf{
		Trace:       0xfeedbeef,
		Batch:       42,
		Input:       in,
		Checkpoints: []check.Digest{c0, c1},
		Votes: []Vote{
			{Replica: "r1", Sum: v0, Agree: true},
			{Replica: "r2", Sum: v0, Agree: false},
		},
		Output:  out,
		Rung:    3,
		Replica: "r0",
	}
}

func TestLeafCodecRoundTrip(t *testing.T) {
	cases := []Leaf{
		testLeaf(),
		{},                             // all-zero leaf
		{Trace: 1, Batch: 2},           // no checkpoints, no votes
		{Replica: "only-replica"},      // string without votes
		{Votes: []Vote{{Agree: true}}}, // empty replica name in vote
	}
	for i, l := range cases {
		b, err := l.Marshal()
		if err != nil {
			t.Fatalf("case %d: marshal: %v", i, err)
		}
		got, err := UnmarshalLeaf(b)
		if err != nil {
			t.Fatalf("case %d: unmarshal: %v", i, err)
		}
		b2, err := got.Marshal()
		if err != nil {
			t.Fatalf("case %d: re-marshal: %v", i, err)
		}
		if string(b) != string(b2) {
			t.Fatalf("case %d: round-trip not canonical", i)
		}
		if _, err := UnmarshalLeaf(b[:len(b)-1]); err == nil {
			t.Fatalf("case %d: truncated leaf accepted", i)
		}
		if _, err := UnmarshalLeaf(append(append([]byte(nil), b...), 7)); err == nil {
			t.Fatalf("case %d: trailing byte accepted", i)
		}
	}
}

// testIdentity launches a signing enclave with the standard monitor image
// shape and a verifier trusting its platform.
func testIdentity(t *testing.T) (*enclave.Enclave, *enclave.Verifier) {
	t.Helper()
	plat, err := enclave.NewPlatform("audit-plat", enclave.SGX2, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	encl, err := plat.Launch(enclave.Image{Name: "mvtee-monitor", Code: []byte("mvtee monitor v1"), InitialPages: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	v := enclave.NewVerifier()
	v.Trust(plat)
	return encl, v
}

func TestSignedHeadVerifies(t *testing.T) {
	encl, v := testIdentity(t)
	var model, bindings Hash
	model[0], bindings[0] = 0xaa, 0xbb
	h := TreeHead{Size: 9, Root: Hash{1}, Model: model, Bindings: bindings, TimeNs: 12345}
	sh, err := SignHead(encl, h)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyHead(v, sh, []enclave.Measurement{encl.Measurement()}); err != nil {
		t.Fatalf("honest head rejected: %v", err)
	}
	if err := CheckChain(sh.Head, model, &bindings); err != nil {
		t.Fatalf("honest chain rejected: %v", err)
	}

	// Forged head: any altered field breaks the report binding.
	forged := sh
	forged.Head.Size++
	if err := VerifyHead(v, forged, nil); err == nil {
		t.Fatal("size-tampered head verified")
	}
	forged = sh
	forged.Head.Root[5] ^= 1
	if err := VerifyHead(v, forged, nil); err == nil {
		t.Fatal("root-tampered head verified")
	}
	// Unsigned head.
	if err := VerifyHead(v, SignedHead{Head: h}, nil); err == nil {
		t.Fatal("unsigned head verified")
	}
	// Wrong signing identity: an untrusted platform's report must fail.
	otherPlat, err := enclave.NewPlatform("rogue", enclave.SGX2, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	rogue, err := otherPlat.Launch(enclave.Image{Name: "rogue", Code: []byte("rogue"), InitialPages: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	forgedSig, err := SignHead(rogue, h)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyHead(v, forgedSig, nil); err == nil {
		t.Fatal("head signed by untrusted platform verified")
	}
	// Wrong measurement pin: trusted platform, unexpected enclave image.
	v.Trust(otherPlat)
	if err := VerifyHead(v, forgedSig, []enclave.Measurement{encl.Measurement()}); err == nil {
		t.Fatal("head from wrong enclave image passed measurement pin")
	}
	// Chain mismatch.
	var wrongModel Hash
	wrongModel[0] = 0xcc
	if err := CheckChain(sh.Head, wrongModel, nil); err == nil {
		t.Fatal("wrong model digest passed chain check")
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func testInputs(seed float32) map[string]*tensor.Tensor {
	return map[string]*tensor.Tensor{
		"x": tensor.MustFromSlice([]float32{seed, seed + 1, seed + 2, seed + 3}, 2, 2),
	}
}

func TestRecorderBuildsLeaves(t *testing.T) {
	encl, v := testIdentity(t)
	var model Hash
	model[0] = 0x11
	rec := NewRecorder(Config{Signer: encl, Model: model, HeadEvery: 4, SampleEvery: 1})
	defer rec.Close()

	var d0 check.Digest
	d0[0] = 7
	cp1 := testInputs(8)
	d1 := check.DigestOf(cp1)
	for i := uint64(1); i <= 10; i++ {
		in := testInputs(float32(i))
		out := testInputs(float32(i) * 100)
		// Stage 0 arrives as a digest, stage 1 by reference to its tensors.
		rec.Record(Batch{
			Trace: i * 1000, ID: i, Inputs: in, Outputs: out,
			Checkpoints: []Checkpoint{{Digest: d0}, {Tensors: cp1}},
			Votes:       []Vote{{Replica: "follower-1", Sum: d1, Agree: true}},
			Rung:        3, Replica: "leader",
		})
	}

	waitFor(t, "10 leaves", func() bool { return rec.Size() == 10 })

	leaf, enc, idx, err := rec.LeafByTrace(5000)
	if err != nil {
		t.Fatal(err)
	}
	if leaf.Batch != 5 || idx != 4 {
		t.Fatalf("trace 5000 -> batch %d index %d", leaf.Batch, idx)
	}
	if leaf.Input != check.DigestOf(testInputs(5)) {
		t.Fatal("leaf input digest does not match submitted inputs")
	}
	if leaf.Output != check.DigestOf(testInputs(500)) {
		t.Fatal("leaf output digest does not match delivered outputs")
	}
	if len(leaf.Checkpoints) != 2 || leaf.Checkpoints[0] != d0 || leaf.Checkpoints[1] != d1 {
		t.Fatalf("leaf checkpoints wrong: %v", leaf.Checkpoints)
	}
	if len(leaf.Votes) != 1 || leaf.Votes[0].Replica != "follower-1" || !leaf.Votes[0].Agree {
		t.Fatalf("leaf votes wrong: %+v", leaf.Votes)
	}
	if leaf.Rung != 3 || leaf.Replica != "leader" {
		t.Fatalf("leaf rung/replica wrong: %d %q", leaf.Rung, leaf.Replica)
	}
	// The head covers the log and the inclusion proof verifies.
	sh, err := rec.SignedHead(false)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyHead(v, sh, []enclave.Measurement{encl.Measurement()}); err != nil {
		t.Fatalf("recorder head rejected: %v", err)
	}
	if sh.Head.Model != model {
		t.Fatal("head does not chain the model digest")
	}
	if sh.Head.Size < idx+1 {
		sh, err = rec.SignedHead(true)
		if err != nil {
			t.Fatal(err)
		}
	}
	p, err := rec.InclusionProof(idx, sh.Head.Size)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyInclusion(LeafHash(enc), p, sh.Head.Root); err != nil {
		t.Fatalf("inclusion of recorded leaf failed: %v", err)
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var rec *Recorder
	rec.Record(Batch{ID: 1, Checkpoints: []Checkpoint{{}}, Votes: []Vote{{Replica: "r"}}})
	rec.Close()
	if rec.Size() != 0 || rec.Dropped() != 0 {
		t.Fatal("nil recorder reported state")
	}
	if _, err := rec.SignedHead(true); err == nil {
		t.Fatal("nil recorder produced a head")
	}
}

// TestAuditEndToEnd drives the full auditor loop over the HTTP handler:
// clean verification passes; a flipped output bit, a truncated/rewritten
// log and a forged head are each rejected.
func TestAuditEndToEnd(t *testing.T) {
	encl, v := testIdentity(t)
	var model Hash
	model[0] = 0x42
	rec := NewRecorder(Config{Signer: encl, Model: model, HeadEvery: 4, SampleEvery: 1})
	defer rec.Close()

	// Deterministic stand-in engine: output = input scaled. Bitwise
	// deterministic, so replay reproduces it exactly.
	run := func(in map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
		out := make(map[string]*tensor.Tensor, len(in))
		for k, tt := range in {
			d := tt.Data()
			scaled := make([]float32, len(d))
			for i, f := range d {
				scaled[i] = f * 2
			}
			shape := make([]int, tt.Dims())
			for i := range shape {
				shape[i] = tt.Dim(i)
			}
			out[k] = tensor.MustFromSlice(scaled, shape...)
		}
		return out, nil
	}
	for i := uint64(1); i <= 9; i++ {
		in := testInputs(float32(i))
		out, _ := run(in)
		rec.Record(Batch{Trace: i * 10, ID: i, Inputs: in, Outputs: out,
			Checkpoints: []Checkpoint{{Digest: check.DigestOf(out)}}, Rung: 3, Replica: "node-a"})
	}
	waitFor(t, "9 leaves", func() bool { return rec.Size() == 9 })

	srv := httptest.NewServer(Handler(rec, HandlerConfig{}))
	defer srv.Close()

	aud := &Auditor{Verifier: v, Measurements: []enclave.Measurement{encl.Measurement()}, Model: model}

	// 1. Clean run: head, per-trace inclusion, sample replay, consistency.
	headDoc, err := Fetch(srv.URL, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := aud.VerifyDoc(headDoc); err != nil {
		t.Fatalf("clean head rejected: %v", err)
	}
	traceDoc, err := Fetch(srv.URL, "trace="+"00000000000000"+"32") // trace 0x32 = 50 = batch 5
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := aud.VerifyDoc(traceDoc)
	if err != nil {
		t.Fatalf("clean trace doc rejected: %v", err)
	}
	if leaf == nil || leaf.Batch != 5 {
		t.Fatalf("trace doc returned wrong leaf: %+v", leaf)
	}
	sampleDoc, err := Fetch(srv.URL, "sample=1")
	if err != nil {
		t.Fatal(err)
	}
	sampleLeaf, err := aud.VerifyDoc(sampleDoc)
	if err != nil {
		t.Fatalf("clean sample doc rejected: %v", err)
	}
	if err := Replay(sampleLeaf, sampleDoc.Inputs, run); err != nil {
		t.Fatalf("clean replay failed: %v", err)
	}
	consDoc, err := Fetch(srv.URL, "consistency=4")
	if err != nil {
		t.Fatal(err)
	}
	oldRoot, err := rec.log.RootAt(4)
	if err != nil {
		t.Fatal(err)
	}
	pinned := TreeHead{Size: 4, Root: oldRoot}
	if err := aud.VerifyConsistencyWith(pinned, consDoc); err != nil {
		t.Fatalf("clean consistency rejected: %v", err)
	}

	// 2. Flipped output bit: a tampered engine result fails replay.
	tampered := func(in map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
		out, _ := run(in)
		for _, tt := range out {
			tt.Data()[0] += 1e-6 // one ULP-ish nudge — still caught bitwise
			break
		}
		return out, nil
	}
	if err := Replay(sampleLeaf, sampleDoc.Inputs, tampered); err == nil {
		t.Fatal("flipped output bit passed replay")
	} else if !strings.Contains(err.Error(), "replay mismatch") {
		t.Fatalf("flipped output bit failed with wrong error: %v", err)
	}
	// A tampered served leaf fails the inclusion proof before any replay.
	badLeafDoc := *traceDoc
	badLeafDoc.Leaf = append([]byte(nil), traceDoc.Leaf...)
	badLeafDoc.Leaf[len(badLeafDoc.Leaf)-10] ^= 1
	if _, err := aud.VerifyDoc(&badLeafDoc); err == nil {
		t.Fatal("tampered leaf passed inclusion verification")
	}
	// Tampered sample inputs fail the input-digest binding.
	badInputs := append([]byte(nil), sampleDoc.Inputs...)
	badInputs[len(badInputs)-1] ^= 1
	if err := Replay(sampleLeaf, badInputs, run); err == nil {
		t.Fatal("tampered sample inputs passed replay")
	}

	// 3. Truncated/rewritten log: a server that rewrote history cannot
	// produce a consistency proof against the pinned head.
	rec2 := NewRecorder(Config{Signer: encl, Model: model, HeadEvery: 4})
	defer rec2.Close()
	for i := uint64(1); i <= 9; i++ {
		in := testInputs(float32(i) + 0.5) // different history
		out, _ := run(in)
		rec2.Record(Batch{Trace: i * 10, ID: i, Inputs: in, Outputs: out, Rung: 3, Replica: "node-a"})
	}
	waitFor(t, "rewritten leaves", func() bool { return rec2.Size() == 9 })
	srv2 := httptest.NewServer(Handler(rec2, HandlerConfig{}))
	defer srv2.Close()
	rewrittenCons, err := Fetch(srv2.URL, "consistency=4")
	if err != nil {
		t.Fatal(err)
	}
	if err := aud.VerifyConsistencyWith(pinned, rewrittenCons); err == nil {
		t.Fatal("rewritten log produced a valid consistency proof against the pinned head")
	}

	// 4. Forged head: wrong model chain and wrong signing identity.
	wrongModelAud := &Auditor{Verifier: v, Measurements: []enclave.Measurement{encl.Measurement()}, Model: Hash{0x99}}
	if _, err := wrongModelAud.VerifyDoc(headDoc); err == nil {
		t.Fatal("head chained to a different model passed")
	}
	strangerV := enclave.NewVerifier() // trusts nobody
	strangerAud := &Auditor{Verifier: strangerV, Model: model}
	if _, err := strangerAud.VerifyDoc(headDoc); err == nil {
		t.Fatal("head verified without a trusted platform")
	}
}

func TestHeadContextSeparation(t *testing.T) {
	// A report bound to a different attestation context (e.g. a channel
	// report) must not validate as a head report even over the same bytes.
	encl, v := testIdentity(t)
	h := TreeHead{Size: 1, Root: Hash{1}}
	r, err := attest.Respond(encl, h.digest(), "some-other-context")
	if err != nil {
		t.Fatal(err)
	}
	rb, err := r.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyHead(v, SignedHead{Head: h, Report: rb}, nil); err == nil {
		t.Fatal("cross-context report accepted as head signature")
	}
}
