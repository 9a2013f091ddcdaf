package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/monitor"
	"repro/internal/tensor"
	"repro/internal/wire"
)

// trickyFloats are finite values that stress a text codec: negative zero, a
// denormal, near-max magnitudes, and a non-terminating binary fraction. (NaN
// and Inf cannot ride JSON at all; the wire package tests those binary-only.
// Kept under half of MaxFloat32 so the doubling test model stays finite.)
func trickyFloats() []float32 {
	return []float32{
		float32(math.Copysign(0, -1)),
		math.Float32frombits(1), // smallest denormal
		1.5e38,
		-math.SmallestNonzeroFloat32,
		1.0 / 3.0,
		-2.5e-12,
	}
}

func binClient(url string) *Client { return &Client{BaseURL: url, Binary: true} }

func TestHTTPBinaryInfer(t *testing.T) {
	fe := newFakeEngine()
	s := newTestServer(t, fe, Config{MaxBatch: 4, MaxDelay: time.Millisecond,
		ItemShapes: declareX(len(trickyFloats()))})
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	in := tensor.MustFromSlice(trickyFloats(), 1, len(trickyFloats()))
	r, err := binClient(ts.URL).Infer(context.Background(), Request{
		Tenant:   "acme",
		Priority: High,
		Inputs:   map[string]*tensor.Tensor{"x": in},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.ID == 0 || r.BatchID == 0 {
		t.Fatalf("missing ids: %+v", r)
	}
	y := r.Tensors["y"]
	if y == nil || !y.SameShape(in) {
		t.Fatalf("y = %v, want shape %v", y, in.Shape())
	}
	for i, v := range in.Data() {
		if got, want := y.Data()[i], 2*v; math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("y[%d] bits %x, want %x", i, math.Float32bits(got), math.Float32bits(want))
		}
	}
	// The tenant and priority headers must have reached admission: the fake
	// engine saw exactly one batch with our row.
	if got := fe.batches(); len(got) != 1 || got[0]["x"].Dim(0) != 1 {
		t.Fatalf("engine saw %v", got)
	}
}

// TestHTTPBinaryJSONEquivalence drives the same request through both content
// types and demands bitwise-identical outputs — the acceptance bar for the
// binary path being a transport change, not a numerics change.
func TestHTTPBinaryJSONEquivalence(t *testing.T) {
	fe := newFakeEngine()
	s := newTestServer(t, fe, Config{MaxBatch: 1, MaxDelay: time.Millisecond, ItemShapes: declareX(3)})
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	in := tensor.MustFromSlice(trickyFloats(), 2, 3)
	req := func() Request {
		return Request{Tenant: "t", Inputs: map[string]*tensor.Tensor{"x": in.Clone()}}
	}
	jr, err := (&Client{BaseURL: ts.URL}).Infer(context.Background(), req())
	if err != nil {
		t.Fatalf("json: %v", err)
	}
	br, err := binClient(ts.URL).Infer(context.Background(), req())
	if err != nil {
		t.Fatalf("binary: %v", err)
	}
	jy, by := jr.Tensors["y"], br.Tensors["y"]
	if !jy.SameShape(by) {
		t.Fatalf("shapes diverge: json %v binary %v", jy.Shape(), by.Shape())
	}
	for i := range jy.Data() {
		if jb, bb := math.Float32bits(jy.Data()[i]), math.Float32bits(by.Data()[i]); jb != bb {
			t.Fatalf("element %d: json bits %x != binary bits %x", i, jb, bb)
		}
	}
}

func TestHTTPContentNegotiation(t *testing.T) {
	fe := newFakeEngine()
	s := newTestServer(t, fe, Config{MaxBatch: 1, MaxDelay: time.Millisecond, ItemShapes: declareX(2)})
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	// JSON request + Accept: binary → binary response body.
	jbody, err := json.Marshal(InferRequest{Inputs: map[string]WireTensor{
		"x": {Shape: []int{1, 2}, Data: []float32{3, 4}}}})
	if err != nil {
		t.Fatal(err)
	}
	hr, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/infer", bytes.NewReader(jbody))
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set("Accept", wire.ContentTypeBinary)
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != wire.ContentTypeBinary {
		t.Fatalf("Content-Type %q, want binary", ct)
	}
	meta, outs, err := wire.DecodeResponse(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Tensors != 1 || outs["y"].At(0, 0) != 6 {
		t.Fatalf("binary response meta=%+v outs=%v", meta, outs)
	}

	// Binary request + Accept: application/json → JSON response body.
	var bbody bytes.Buffer
	if err := wire.EncodeRequest(&bbody, map[string]*tensor.Tensor{
		"x": tensor.MustFromSlice([]float32{5, 6}, 1, 2)}); err != nil {
		t.Fatal(err)
	}
	hr, _ = http.NewRequest(http.MethodPost, ts.URL+"/v1/infer", &bbody)
	hr.Header.Set("Content-Type", wire.ContentTypeBinary)
	hr.Header.Set("Accept", "application/json")
	resp2, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if ct := resp2.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q, want JSON", ct)
	}
	var out InferResponse
	if err := json.NewDecoder(resp2.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if got := out.Outputs["y"].Data; len(got) != 2 || got[0] != 10 || got[1] != 12 {
		t.Fatalf("json response outputs %v", out.Outputs)
	}

	// An unknown Content-Type is refused outright.
	resp3, err := http.Post(ts.URL+"/v1/infer", "application/x-protobuf", bytes.NewReader(jbody))
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("unknown content type: status %d, want 415", resp3.StatusCode)
	}
}

// reorderEngine withholds results until `hold` submissions have arrived, then
// delivers them in reverse order — the delivery pattern a hot replacement
// mid-stream produces (later batches from the promoted spare overtake earlier
// ones). The demux must still route every result to its own waiter.
type reorderEngine struct {
	mu   sync.Mutex
	ids  uint64
	outs chan monitor.BatchResult
	pend []monitor.BatchResult
	hold int
}

func (e *reorderEngine) Submit(in map[string]*tensor.Tensor) (uint64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ids++
	y := in["x"].Clone()
	y.Scale(2)
	e.pend = append(e.pend, monitor.BatchResult{ID: e.ids,
		Tensors: map[string]*tensor.Tensor{"y": y}})
	if len(e.pend) >= e.hold {
		for i := len(e.pend) - 1; i >= 0; i-- {
			e.outs <- e.pend[i]
		}
		e.pend = nil
	}
	return e.ids, nil
}

func (e *reorderEngine) Outputs() <-chan monitor.BatchResult { return e.outs }
func (e *reorderEngine) Ladder() []monitor.LadderRung {
	return []monitor.LadderRung{monitor.LadderFull}
}

func TestHTTPBinaryStreamingOutOfOrderDelivery(t *testing.T) {
	const clients = 6
	eng := &reorderEngine{outs: make(chan monitor.BatchResult, 64), hold: clients}
	s := newTestServer(t, eng, Config{MaxBatch: 1, MaxDelay: time.Millisecond})
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			v := float32(100 + c)
			r, err := binClient(ts.URL).Infer(context.Background(), Request{
				Tenant: "t",
				Inputs: map[string]*tensor.Tensor{"x": tensor.MustFromSlice([]float32{v}, 1, 1)},
			})
			if err != nil {
				errs <- err
				return
			}
			if got := r.Tensors["y"].At(0, 0); got != 2*v {
				errs <- errors.New("reordered delivery crossed streams")
				return
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
}

func TestHTTPBinaryOverload429Frame(t *testing.T) {
	fe := newFakeEngine()
	fe.block = make(chan struct{})
	s := newTestServer(t, fe, Config{MaxBatch: 1, MaxDelay: time.Millisecond, TenantQueue: 1})
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()
	defer close(fe.block)

	// Saturate in two deterministic steps (see TestHTTPOverloadHas429AndRetryAfter).
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

	_, err := binClient(ts.URL).Infer(context.Background(), Request{Tenant: "t",
		Inputs: map[string]*tensor.Tensor{"x": tensor.MustFromSlice([]float32{1}, 1, 1)}})
	var se *StatusError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *StatusError", err)
	}
	if se.Status != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", se.Status)
	}
	if se.RetryAfter <= 0 {
		t.Fatalf("binary error frame lost the retry-after hint: %+v", se)
	}
}

func TestHTTPBinaryDrain503Frame(t *testing.T) {
	fe := newFakeEngine()
	s := newTestServer(t, fe, Config{MaxBatch: 1, MaxDelay: time.Millisecond})
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	_, err := binClient(ts.URL).Infer(context.Background(), Request{Tenant: "t",
		Inputs: map[string]*tensor.Tensor{"x": tensor.MustFromSlice([]float32{1}, 1, 1)}})
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want *StatusError 503", err)
	}
	if se.RetryAfter <= 0 {
		t.Fatalf("drain rejection without retry-after: %+v", se)
	}
}

func TestHTTPBinaryShapeRejectedAtAdmission(t *testing.T) {
	fe := newFakeEngine()
	s := newTestServer(t, fe, Config{MaxBatch: 1, MaxDelay: time.Millisecond,
		ItemShapes: map[string][]int{"x": {1, 4}}})
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	bad := []map[string]*tensor.Tensor{
		{"y": tensor.New(1, 4)},    // unknown input
		{"x": tensor.New(1, 3)},    // wrong item width
		{"x": tensor.New(1, 4, 1)}, // wrong rank
		{"x": tensor.New(65, 4)},   // over maxItems
	}
	for i, in := range bad {
		_, err := binClient(ts.URL).Infer(context.Background(), Request{Tenant: "t", Inputs: in})
		var se *StatusError
		if !errors.As(err, &se) || se.Status != http.StatusBadRequest {
			t.Fatalf("bad case %d: err = %v, want *StatusError 400", i, err)
		}
	}
	// The conforming request still passes, whatever its item count.
	if _, err := binClient(ts.URL).Infer(context.Background(), Request{Tenant: "t",
		Inputs: map[string]*tensor.Tensor{"x": tensor.New(3, 4)}}); err != nil {
		t.Fatalf("conforming request rejected: %v", err)
	}
}

// zeroReader yields zero bytes forever.
type zeroReader struct{}

func (zeroReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 0
	}
	return len(p), nil
}

func TestHTTPBinaryBodyTooLarge(t *testing.T) {
	fe := newFakeEngine()
	// The declared interface admits 64 items of one float: a binary cap of
	// a few hundred bytes.
	s := newTestServer(t, fe, Config{MaxBatch: 1, MaxDelay: time.Millisecond})
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	// A framing-valid request whose one tensor declares a ~1 GiB payload:
	// shape (64, 1<<22), volume 2^28 floats. It must die with 413 at header
	// cost — before the decoder allocates the backing array, and long before
	// a gigabyte crosses the wire.
	var hdr bytes.Buffer
	hdr.Write([]byte{'M', 'V', 'T', 1, 1, 0}) // version 1, count 1
	const vol = 64 << 22
	body := make([]byte, 5+2+1+4+8)
	body[0] = wire.FrameTensor
	binary.LittleEndian.PutUint32(body[1:], uint32(2+1+4+8+4*vol))
	binary.LittleEndian.PutUint16(body[5:], 1) // name "x"
	body[7] = 'x'
	binary.LittleEndian.PutUint32(body[8:], 2) // rank 2: (64, 1<<22)
	binary.LittleEndian.PutUint32(body[12:], 64)
	binary.LittleEndian.PutUint32(body[16:], 1<<22)
	hdr.Write(body)

	sent := &trackingReader{r: io.MultiReader(bytes.NewReader(hdr.Bytes()), io.LimitReader(zeroReader{}, 4*vol))}
	resp, err := http.Post(ts.URL+"/v1/infer", wire.ContentTypeBinary, io.NopCloser(sent))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	// The counter sees what the client transport pumped before noticing the
	// reset, not what the server consumed, so allow generous in-flight slack —
	// the point is the gigabyte never moved.
	if n := sent.n.Load(); n > 32<<20 {
		t.Fatalf("client pumped %d bytes of an undeliverable request, want early rejection", n)
	}

	// The flip side of a tight cap: a maximal legitimate request under a
	// declared interface passes, where the JSON-sized estimate would... also
	// pass — the point is the binary cap is ~6x tighter and still admits it.
	s2 := newTestServer(t, newFakeEngine(), Config{MaxBatch: 1, MaxDelay: time.Millisecond,
		ItemShapes: declareX(256)})
	ts2 := httptest.NewServer(Handler(s2))
	defer ts2.Close()
	if _, err := binClient(ts2.URL).Infer(context.Background(), Request{Tenant: "t",
		Inputs: map[string]*tensor.Tensor{"x": tensor.New(64, 256)}}); err != nil {
		t.Fatalf("maximal request under declared interface rejected: %v", err)
	}
}

// trackingReader counts bytes the server actually pulled from the client.
// The transport goroutine may still be pumping the body when the test
// goroutine inspects the count, so it must be atomic.
type trackingReader struct {
	r io.Reader
	n atomic.Int64
}

func (t *trackingReader) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	t.n.Add(int64(n))
	return n, err
}

func TestHTTPBinaryDisabled(t *testing.T) {
	fe := newFakeEngine()
	s := newTestServer(t, fe, Config{MaxBatch: 1, MaxDelay: time.Millisecond, DisableBinary: true})
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	_, err := binClient(ts.URL).Infer(context.Background(), Request{Tenant: "t",
		Inputs: map[string]*tensor.Tensor{"x": tensor.MustFromSlice([]float32{1}, 1, 1)}})
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusUnsupportedMediaType {
		t.Fatalf("binary against disabled server: err = %v, want *StatusError 415", err)
	}
	// JSON keeps working: the gate is per-protocol, not per-endpoint.
	if _, err := (&Client{BaseURL: ts.URL}).Infer(context.Background(), Request{Tenant: "t",
		Inputs: map[string]*tensor.Tensor{"x": tensor.MustFromSlice([]float32{1}, 1, 1)}}); err != nil {
		t.Fatalf("json on binary-disabled server: %v", err)
	}

	// /healthz advertises only JSON here, both protocols on a default server.
	protocols := func(url string) []string {
		resp, err := http.Get(url + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h Health
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return h.Protocols
	}
	if got := protocols(ts.URL); len(got) != 1 || got[0] != "application/json" {
		t.Fatalf("disabled server advertises %v", got)
	}
	s2 := newTestServer(t, newFakeEngine(), Config{MaxBatch: 1, MaxDelay: time.Millisecond})
	ts2 := httptest.NewServer(Handler(s2))
	defer ts2.Close()
	if got := protocols(ts2.URL); len(got) != 2 || got[1] != wire.ContentTypeBinary+";v=1" {
		t.Fatalf("default server advertises %v", got)
	}
}
