package node

import (
	"context"
	"errors"
	"io"
	"math/rand/v2"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/enclave"
	"repro/internal/infer"
	"repro/internal/models"
	"repro/internal/securechan"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/transcript"
	"repro/internal/wire"
)

// The small pipeline every test serves: mobilenetv3 at scale 0.05 and input
// 8, three stages with three diverse variants on the middle one.
var (
	bundleOnce sync.Once
	bundle     *core.Bundle
	bundleErr  error
)

func options() Options {
	return Options{
		Model: "mobilenetv3", Scale: 0.05, InputSize: 8, Stages: 3, MVXStage: 1,
		Listen: "127.0.0.1:0", Adaptive: true, DrainTimeout: 5 * time.Second,
		Audit: true, AuditHeadEvery: 1,
	}
}

func testBundle(t *testing.T) *core.Bundle {
	t.Helper()
	bundleOnce.Do(func() { bundle, bundleErr = BuildBundle(options()) })
	if bundleErr != nil {
		t.Fatal(bundleErr)
	}
	return bundle
}

func input(seed uint64) map[string]*tensor.Tensor {
	in := tensor.New(1, 3, 8, 8)
	rng := rand.New(rand.NewPCG(seed, seed))
	for i := range in.Data() {
		in.Data()[i] = float32(rng.NormFloat64())
	}
	return map[string]*tensor.Tensor{"image": in}
}

// checkBaseline compares an answer with the unpartitioned model's output
// under the deployment's agreement tolerance.
func checkBaseline(t *testing.T, in, got map[string]*tensor.Tensor) {
	t.Helper()
	base, err := core.BaselineExecutor("mobilenetv3", models.Config{Scale: 0.05, InputSize: 8}, infer.Config{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := base.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := check.Consistent(got, want, check.Policy{Criteria: []check.Criterion{
		{Metric: check.AllClose, RTol: 5e-2, ATol: 1e-3},
	}})
	if err != nil || !ok {
		t.Fatalf("answer differs from the baseline model (err %v)", err)
	}
}

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	return string(body)
}

func shutdown(t *testing.T, f *Frontend) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.Shutdown(ctx); err != nil {
		t.Errorf("front door shutdown: %v", err)
	}
}

// TestInProcessStack brings up mvtee-serve's in-process stack and checks
// its answers on both protocols, its operator surfaces, and drain.
func TestInProcessStack(t *testing.T) {
	o := options()
	o.TelemetryAddr = "127.0.0.1:0"
	n, err := Deploy(o, testBundle(t))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	op, err := ListenOperator(o.TelemetryAddr, n.Handlers(o))
	if err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	f, err := StartFrontend(o, n)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, f)

	url := "http://" + f.Addr()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i, binary := range []bool{false, true} {
		in := input(uint64(i + 1))
		resp, err := (&serve.Client{BaseURL: url, Binary: binary}).Infer(ctx, serve.Request{Inputs: in})
		if err != nil {
			t.Fatalf("binary=%v: %v", binary, err)
		}
		checkBaseline(t, in, resp.Tensors)
	}

	get(t, url+"/healthz")
	opURL := "http://" + op.Addr()
	if m := get(t, opURL+"/metrics"); !strings.Contains(m, "mvtee_serve_requests_total") {
		t.Error("/metrics has no mvtee_serve_requests_total")
	}
	get(t, opURL+"/debug/flight")

	// The recorder signs heads off the request path: wait for one covering
	// both answers, then verify it as an auditor trusting the published
	// platform identity would.
	var doc *transcript.AuditDoc
	for deadline := time.Now().Add(10 * time.Second); ; {
		if doc, err = transcript.Fetch(opURL, ""); err != nil {
			t.Fatal(err)
		}
		if doc.Head.Head.Size >= 2 || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	verifier := enclave.NewVerifier()
	if err := verifier.TrustIdentity(doc.Identity); err != nil {
		t.Fatal(err)
	}
	aud := transcript.Auditor{
		Verifier:     verifier,
		Measurements: []enclave.Measurement{enclave.Measure(core.MonitorImage())},
		Model:        testBundle(t).ModelDigest(),
	}
	if _, err := aud.VerifyDoc(doc); err != nil {
		t.Fatalf("/audit head (size %d): %v", doc.Head.Head.Size, err)
	}

	if err := f.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	_, err = (&serve.Client{BaseURL: url}).Infer(ctx, serve.Request{Inputs: input(3)})
	var se *serve.StatusError
	if !errors.As(err, &se) || se.Status != http.StatusServiceUnavailable {
		t.Fatalf("request after drain: %v, want 503", err)
	}
}

// replica brings up one in-process replica on a loopback port and returns
// it with the attestation check that pins its own platform.
func replica(t *testing.T, id string) (*Node, securechan.VerifyPeer) {
	t.Helper()
	o := options()
	o.ReplicaListen, o.ReplicaID = "127.0.0.1:0", id
	n, err := Deploy(o, testBundle(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	identity, err := n.Monitor.Enclave().Platform().ExportPublic()
	if err != nil {
		t.Fatal(err)
	}
	verify, err := core.MonitorPeer(identity)
	if err != nil {
		t.Fatal(err)
	}
	return n, verify
}

// TestClusterStack routes over two in-process replicas with attestation
// pinned and checks one answer, its audit leaf's follower vote and the
// federated metrics.
func TestClusterStack(t *testing.T) {
	r0, v0 := replica(t, "replica-0")
	r1, v1 := replica(t, "replica-1")
	signer, err := r0.Monitor.Enclave().Platform().Launch(core.RouterImage())
	if err != nil {
		t.Fatal(err)
	}
	defer signer.Destroy()

	o := options()
	o.Replicas = []string{r0.Replicas.Addr(), r1.Replicas.Addr()}
	// Async (the default): the row leaves at the leader's result, and the
	// leaf waits for the vote.
	o.ClusterVerify = 1
	verify := []securechan.VerifyPeer{v0, v1}
	n, err := Cluster(o, Trust{
		Verify: func(i int) securechan.VerifyPeer { return verify[i] },
		Signer: signer,
		Model:  testBundle(t).ModelDigest(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	f, err := StartFrontend(o, n)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, f)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	in := input(7)
	resp, err := (&serve.Client{BaseURL: "http://" + f.Addr(), Binary: true}).Infer(ctx, serve.Request{Inputs: in})
	if err != nil {
		t.Fatal(err)
	}
	checkBaseline(t, in, resp.Tensors)

	// The router decided the follower's vote from its digest frame: one
	// agreeing vote whose sum is the delivered output's digest.
	for deadline := time.Now().Add(10 * time.Second); n.audit.Size() == 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no audit leaf for the answered request")
		}
	}
	leaf, _, err := n.audit.LeafAt(0)
	if err != nil {
		t.Fatal(err)
	}
	if leaf.Input != check.DigestOf(in) {
		t.Fatal("leaf 0 is not this request's batch")
	}
	if len(leaf.Votes) != 1 {
		t.Fatalf("leaf votes = %+v, want one", leaf.Votes)
	}
	if v := leaf.Votes[0]; v.Replica == leaf.Replica || !v.Agree || v.Sum != leaf.Output {
		t.Fatalf("vote %+v on a leaf led by %s with output %x, want the follower agreeing on the output",
			v, leaf.Replica, leaf.Output[:8])
	}

	op, err := ListenOperator("127.0.0.1:0", n.Handlers(o))
	if err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	// The router polls each replica's registry every couple of seconds.
	var page string
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(50 * time.Millisecond) {
		page = get(t, "http://"+op.Addr()+"/metrics/cluster")
		if strings.Contains(page, "# replica replica-0 ") && strings.Contains(page, "# replica replica-1 ") {
			return
		}
	}
	t.Fatalf("/metrics/cluster lacks a replica section:\n%.2000s", page)
}

// TestReplicaCloseEndsLiveSession closes a replica port while a router
// session is live: Close must end the session and return.
func TestReplicaCloseEndsLiveSession(t *testing.T) {
	n, verify := replica(t, "replica-close")
	rep, err := dialReplica(n.Replicas.Addr(), verify)
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	if id := rep.Hello().ID; id != "replica-close" {
		t.Fatalf("hello ID %q", id)
	}
	done := make(chan error, 1)
	go func() { done <- n.Replicas.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("replica Close blocked with a live router session")
	}
}

// TestSameModel pins the router's bring-up check: replicas that disagree
// with replica 0 on stages, graph inputs, graph outputs or input shapes, or
// a replica set with no declared input interface, are refused.
func TestSameModel(t *testing.T) {
	hello := func(id string, edit func(*wire.ReplicaHello)) wire.ReplicaHello {
		h := wire.ReplicaHello{ID: id, Stages: 3,
			GraphInputs: []string{"x"}, GraphOutputs: []string{"y"},
			ItemShapes: map[string][]int{"x": {1, 3, 8, 8}}}
		if edit != nil {
			edit(&h)
		}
		return h
	}
	for _, c := range []struct {
		name string
		edit func(*wire.ReplicaHello)
		ok   bool
	}{
		{"same model", nil, true},
		{"other variant count", func(h *wire.ReplicaHello) { h.Variants = 5 }, true},
		{"stages", func(h *wire.ReplicaHello) { h.Stages = 2 }, false},
		{"graph input renamed", func(h *wire.ReplicaHello) { h.GraphInputs = []string{"img"} }, false},
		{"extra graph output", func(h *wire.ReplicaHello) { h.GraphOutputs = []string{"y", "z"} }, false},
		{"graph output renamed", func(h *wire.ReplicaHello) { h.GraphOutputs = []string{"logits"} }, false},
		{"per-item dims", func(h *wire.ReplicaHello) { h.ItemShapes = map[string][]int{"x": {1, 3, 16, 16}} }, false},
		{"input shape renamed", func(h *wire.ReplicaHello) { h.ItemShapes = map[string][]int{"img": {1, 3, 8, 8}} }, false},
		{"extra input shape", func(h *wire.ReplicaHello) { h.ItemShapes["m"] = []int{1, 4} }, false},
	} {
		err := sameModel([]wire.ReplicaHello{hello("rep-0", nil), hello("rep-1", nil), hello("rep-2", c.edit)})
		if (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok %v", c.name, err, c.ok)
		}
	}
	empty := func(h *wire.ReplicaHello) { h.ItemShapes = nil }
	if err := sameModel([]wire.ReplicaHello{hello("rep-0", empty), hello("rep-1", empty)}); err == nil {
		t.Error("replicas declaring no input interface admitted")
	}
	if err := sameModel([]wire.ReplicaHello{hello("rep-0", empty)}); err == nil {
		t.Error("a lone replica declaring no input interface admitted")
	}
}
