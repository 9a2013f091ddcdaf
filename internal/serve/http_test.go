package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/telemetry"
)

func postInfer(t *testing.T, url string, body InferRequest) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/infer", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestHTTPInfer(t *testing.T) {
	fe := newFakeEngine()
	s := newTestServer(t, fe, Config{MaxBatch: 4, MaxDelay: time.Millisecond, ItemShapes: declareX(3)})
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	resp := postInfer(t, ts.URL, InferRequest{
		Tenant:   "acme",
		Priority: "high",
		Inputs:   map[string]WireTensor{"x": {Shape: []int{1, 3}, Data: []float32{1, 2, 3}}},
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	var out InferResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	y := out.Outputs["y"]
	if len(y.Data) != 3 || y.Data[0] != 2 || y.Data[2] != 6 {
		t.Fatalf("y = %+v, want doubled inputs", y)
	}
	if out.ID == 0 || out.BatchID == 0 {
		t.Fatalf("missing ids: %+v", out)
	}
}

func TestHTTPOverloadHas429AndRetryAfter(t *testing.T) {
	fe := newFakeEngine()
	fe.block = make(chan struct{})
	s := newTestServer(t, fe, Config{MaxBatch: 1, MaxDelay: time.Millisecond, TenantQueue: 1})
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()
	// Deferred after ts.Close so it runs first: ts.Close waits for in-flight
	// handlers, which sit in Infer until the engine unblocks.
	defer close(fe.block)

	// Saturate in two deterministic steps (the engine accepts nothing, so
	// admitted requests block server-side until the deferred unblock): the
	// first admitted request is picked into batch assembly and wedges the
	// scheduler in engine.Submit; only then does the second one fill the
	// tenant queue (cap 1). Firing both at once would race — the second
	// could hit the still-full queue and consume the 429 itself.
	bgPost := func() {
		resp := postInfer(t, ts.URL, InferRequest{Tenant: "t",
			Inputs: map[string]WireTensor{"x": {Shape: []int{1, 1}, Data: []float32{1}}}})
		resp.Body.Close()
	}
	go bgPost()
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.flushing
	})
	go bgPost()
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.queued >= 1
	})

	resp := postInfer(t, ts.URL, InferRequest{Tenant: "t",
		Inputs: map[string]WireTensor{"x": {Shape: []int{1, 1}, Data: []float32{1}}}})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 against saturated tenant queue", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if eb.RetryAfter <= 0 {
		t.Fatalf("error body retry_after_s = %v, want > 0", eb.RetryAfter)
	}
}

func TestHTTPBadRequest(t *testing.T) {
	fe := newFakeEngine()
	s := newTestServer(t, fe, Config{})
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	resp := postInfer(t, ts.URL, InferRequest{Priority: "urgent",
		Inputs: map[string]WireTensor{"x": {Shape: []int{1}, Data: []float32{1}}}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown priority: status %d, want 400", resp.StatusCode)
	}

	resp = postInfer(t, ts.URL, InferRequest{
		Inputs: map[string]WireTensor{"x": {Shape: []int{2, 2}, Data: []float32{1}}}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("shape/data mismatch: status %d, want 400", resp.StatusCode)
	}
}

func TestHTTPOverflowShapeRejected(t *testing.T) {
	fe := newFakeEngine()
	s := newTestServer(t, fe, Config{MaxBatch: 4, MaxDelay: time.Millisecond})
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	// 2^54 * 3 * 32 * 32 wraps to 0 mod 2^64: before overflow-checked
	// volumes this shape with an empty data slice passed validation and the
	// 2^54-row request crashed batch assembly. It must die with a 400.
	resp := postInfer(t, ts.URL, InferRequest{Inputs: map[string]WireTensor{
		"x": {Shape: []int{1 << 54, 3, 32, 32}, Data: []float32{}},
	}})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}

func TestHTTPBodyTooLarge(t *testing.T) {
	fe := newFakeEngine()
	s := newTestServer(t, fe, Config{MaxBatch: 1, MaxDelay: time.Millisecond,
		ItemShapes: declareX(4)})
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	// The declared interface admits at most 4 floats per request, so the
	// body cap is ~1 MiB; a 3 MiB body must be cut off with a 413 before it
	// is buffered.
	body := bytes.Repeat([]byte("9"), 3<<20)
	resp, err := http.Post(ts.URL+"/v1/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
}

func TestErrStatusClientCancel(t *testing.T) {
	// A client abort surfaces as ctx.Err() out of Infer; it must not be
	// classified as an internal server error.
	for _, err := range []error{context.Canceled, context.DeadlineExceeded} {
		if st, _ := errStatus(err); st != http.StatusRequestTimeout {
			t.Errorf("errStatus(%v) = %d, want %d", err, st, http.StatusRequestTimeout)
		}
	}
}

func TestHTTPHealthz(t *testing.T) {
	fe := newFakeEngine()
	s := newTestServer(t, fe, Config{Metrics: telemetry.NewRegistry()})
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "serving" || h.Shed != "none" || len(h.Ladder) != 1 || h.Ladder[0] != "full" {
		t.Fatalf("healthz = %+v", h)
	}
}

func TestHTTPOverloadWait(t *testing.T) {
	// An admitted HTTP request whose connection dies must not wedge the
	// server: context cancellation abandons the wait, the response channel
	// (buffered) absorbs the eventual delivery.
	fe := newFakeEngine()
	fe.block = make(chan struct{})
	s := newTestServer(t, fe, Config{MaxBatch: 1, MaxDelay: time.Millisecond})
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	client := &http.Client{Timeout: 50 * time.Millisecond}
	buf, _ := json.Marshal(InferRequest{Tenant: "t",
		Inputs: map[string]WireTensor{"x": {Shape: []int{1, 1}, Data: []float32{1}}}})
	if _, err := client.Post(ts.URL+"/v1/infer", "application/json", bytes.NewReader(buf)); err == nil {
		t.Fatal("expected client timeout against blocked engine")
	}
	close(fe.block) // engine recovers; server must still be operational
	resp := postInfer(t, ts.URL, InferRequest{Tenant: "t",
		Inputs: map[string]WireTensor{"x": {Shape: []int{1, 1}, Data: []float32{2}}}})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-recovery status %d, want 200", resp.StatusCode)
	}
}
