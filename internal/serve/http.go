package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"mime"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/tensor"
	"repro/internal/wire"
)

// HTTP API types. Tensors travel either as JSON (shape + flat row-major
// data, the compatibility path) or as the binary streaming protocol under
// Content-Type application/x-mvtee-tensor (see internal/wire/public.go for
// the frame layout). Negotiation: the request's Content-Type selects the
// request codec; the response mirrors the request codec unless the Accept
// header names the other one. On the binary path, tenant and priority ride
// in the X-MVTEE-Tenant / X-MVTEE-Priority headers so the body is purely
// tensor frames.

// WireTensor is the JSON tensor encoding.
type WireTensor struct {
	Shape []int     `json:"shape"`
	Data  []float32 `json:"data"`
}

// InferRequest is the POST /v1/infer JSON body.
type InferRequest struct {
	Tenant   string                `json:"tenant,omitempty"`
	Priority string                `json:"priority,omitempty"` // high | normal | low
	Inputs   map[string]WireTensor `json:"inputs"`
}

// InferResponse is the POST /v1/infer JSON success body.
type InferResponse struct {
	ID        uint64                `json:"id"`
	BatchID   uint64                `json:"batch_id"`
	BatchFill int                   `json:"batch_fill"`
	LatencyMS float64               `json:"latency_ms"`
	Outputs   map[string]WireTensor `json:"outputs"`
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error      string  `json:"error"`
	RetryAfter float64 `json:"retry_after_s,omitempty"`
}

// Health is the GET /healthz body.
type Health struct {
	Status   string         `json:"status"` // serving | draining
	Shed     string         `json:"shed"`
	Ladder   []string       `json:"ladder"`
	Queues   map[string]int `json:"queues"`
	Draining bool           `json:"draining"`
	// Protocols lists the /v1/infer content types this server accepts.
	Protocols []string `json:"protocols"`
}

// Request/response header names for the binary path.
const (
	HeaderTenant   = "X-MVTEE-Tenant"
	HeaderPriority = "X-MVTEE-Priority"
)

// Handler serves the front-end HTTP API over s:
//
//	POST /v1/infer  — one inference request (429 + Retry-After on overload),
//	                  JSON or binary per content negotiation
//	GET  /healthz   — serving status, shed level, ladder, queues, protocols
func Handler(s *Server) http.Handler {
	jsonLimit := maxBodyBytes(s.cfg)
	binLimit := wire.MaxRequestSize(s.cfg.ItemShapes, maxItems)
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/infer", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		binReq, err := isBinary(r.Header.Get("Content-Type"))
		if err != nil {
			writeErr(w, false, http.StatusUnsupportedMediaType, err, 0)
			return
		}
		binResp := respondBinary(r.Header.Get("Accept"), binReq)
		if (binReq || binResp) && s.cfg.DisableBinary {
			writeErr(w, false, http.StatusUnsupportedMediaType,
				fmt.Errorf("binary protocol disabled on this server"), 0)
			return
		}
		s.met.proto(binReq)

		var req Request
		if binReq {
			// Binary requests get a tight body bound: 4 bytes per float32 of
			// the largest admissible request instead of the ~24-bytes-per-
			// float JSON estimate, so legitimate bodies near the limit are
			// not 413ed by a cap sized for text.
			r.Body = http.MaxBytesReader(w, r.Body, binLimit)
			req, err = s.decodeBinary(r, binLimit)
		} else {
			r.Body = http.MaxBytesReader(w, r.Body, jsonLimit)
			req, err = decodeJSON(r)
		}
		if err != nil {
			status := http.StatusBadRequest
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				status = http.StatusRequestEntityTooLarge
			}
			writeErr(w, binResp, status, err, 0)
			return
		}
		resp, err := s.Infer(r.Context(), req)
		if err != nil {
			if r.Context().Err() != nil {
				// The client went away (or its deadline passed) mid-request;
				// there is no one to answer and it is not a server fault —
				// don't let the abort show up as a 5xx in logs and metrics.
				return
			}
			status, retry := errStatus(err)
			writeErr(w, binResp, status, err, retry)
			return
		}
		if binResp {
			writeBinaryResponse(w, resp)
			return
		}
		out := InferResponse{
			ID:        resp.ID,
			BatchID:   resp.BatchID,
			BatchFill: resp.BatchFill,
			LatencyMS: float64(resp.Latency) / float64(time.Millisecond),
			Outputs:   make(map[string]WireTensor, len(resp.Tensors)),
		}
		for name, t := range resp.Tensors {
			out.Outputs[name] = WireTensor{Shape: t.Shape(), Data: t.Data()}
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(out)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		ladder := s.engine.Ladder()
		h := Health{
			Status:    "serving",
			Shed:      s.Shed().String(),
			Queues:    s.QueueDepths(),
			Draining:  s.Draining(),
			Protocols: []string{"application/json"},
		}
		if !s.cfg.DisableBinary {
			h.Protocols = append(h.Protocols,
				fmt.Sprintf("%s;v=%d", wire.ContentTypeBinary, wire.PubVersion))
		}
		for _, rung := range ladder {
			h.Ladder = append(h.Ladder, rung.String())
		}
		if h.Draining {
			h.Status = "draining"
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(h)
	})
	return mux
}

// isBinary classifies a request Content-Type: binary, JSON (the default for
// an absent or unparseable-but-empty header), or an error for anything else.
func isBinary(ct string) (bool, error) {
	if ct == "" {
		return false, nil
	}
	mt, _, err := mime.ParseMediaType(ct)
	if err != nil {
		return false, fmt.Errorf("bad Content-Type %q: %w", ct, err)
	}
	switch mt {
	case wire.ContentTypeBinary:
		return true, nil
	case "application/json", "text/json":
		return false, nil
	default:
		return false, fmt.Errorf("unsupported Content-Type %q (want application/json or %s)",
			mt, wire.ContentTypeBinary)
	}
}

// respondBinary picks the response codec: an Accept header explicitly
// naming one of the two content types wins; otherwise the response mirrors
// the request codec.
func respondBinary(accept string, requestWasBinary bool) bool {
	for _, part := range strings.Split(accept, ",") {
		mt, _, err := mime.ParseMediaType(strings.TrimSpace(part))
		if err != nil {
			continue
		}
		switch mt {
		case wire.ContentTypeBinary:
			return true
		case "application/json":
			return false
		}
	}
	return requestWasBinary
}

// checkWireTensor is the shared front-door tensor validator: both content
// types funnel every (shape, data length) pair through it, so the JSON and
// binary paths reject exactly the same malformed tensors with a 400 instead
// of letting them reach — and under Halt, poison — the engine.
func checkWireTensor(name string, shape []int, dataLen int) (int, error) {
	vol, err := wire.CheckPublicShape(shape)
	if err != nil {
		return 0, fmt.Errorf("%w: input %q: %v", ErrBadRequest, name, err)
	}
	if dataLen != vol {
		return 0, fmt.Errorf("%w: input %q: data length %d != volume %d of %v",
			ErrBadRequest, name, dataLen, vol, shape)
	}
	return vol, nil
}

// decodeJSON decodes the JSON request body into a serve.Request.
func decodeJSON(r *http.Request) (Request, error) {
	var jr InferRequest
	if err := json.NewDecoder(r.Body).Decode(&jr); err != nil {
		return Request{}, err
	}
	prio, err := ParsePriority(jr.Priority)
	if err != nil {
		return Request{}, err
	}
	inputs := make(map[string]*tensor.Tensor, len(jr.Inputs))
	for name, wt := range jr.Inputs {
		if _, err := checkWireTensor(name, wt.Shape, len(wt.Data)); err != nil {
			return Request{}, err
		}
		t, err := tensor.FromSlice(wt.Data, wt.Shape...)
		if err != nil {
			return Request{}, fmt.Errorf("%w: input %q: %v", ErrBadRequest, name, err)
		}
		inputs[name] = t
	}
	return Request{Tenant: jr.Tenant, Priority: prio, Inputs: inputs}, nil
}

// decodeBinary decodes a binary request body of at most limit bytes,
// streaming payloads into pooled scratch. Each frame's shape passes
// checkInput before any payload byte of the frame is read, so a hostile
// frame costs its header, not its body.
func (s *Server) decodeBinary(r *http.Request, limit int64) (Request, error) {
	prio, err := ParsePriority(r.Header.Get(HeaderPriority))
	if err != nil {
		return Request{}, err
	}
	validate := func(name string, shape []int) error {
		// A declared payload that alone exceeds the body cap can never arrive
		// intact; refusing it here (before the decoder allocates the backing
		// array) keeps a 30-byte hostile header from forcing a multi-GiB
		// allocation. Same limit MaxBytesReader enforces, same 413.
		if vol, err := wire.CheckPublicShape(shape); err == nil && 4*int64(vol) > limit {
			return &http.MaxBytesError{Limit: limit}
		}
		return checkInput(s.cfg.ItemShapes, name, shape)
	}
	inputs, err := wire.DecodeRequest(r.Body, validate)
	if err != nil {
		return Request{}, err
	}
	return Request{Tenant: r.Header.Get(HeaderTenant), Priority: prio, Inputs: inputs}, nil
}

// writeBinaryResponse streams resp back as binary frames: meta first, then
// one frame per output tensor in sorted name order, then the end frame. The
// writer flushes after the meta and after every tensor frame, so output
// bytes leave the server as soon as the request's micro-batch has cleared
// the monitor quorum — nothing waits on a whole-response buffer.
func writeBinaryResponse(w http.ResponseWriter, resp Response) {
	names := make([]string, 0, len(resp.Tensors))
	for name := range resp.Tensors {
		names = append(names, name)
	}
	sort.Strings(names)
	w.Header().Set("Content-Type", wire.ContentTypeBinary)
	flusher, _ := w.(http.Flusher)
	if err := wire.WriteResponseHeader(w, wire.PubMeta{
		ID:        resp.ID,
		BatchID:   resp.BatchID,
		BatchFill: resp.BatchFill,
		Latency:   resp.Latency,
		Tensors:   len(names),
	}); err != nil {
		return
	}
	if flusher != nil {
		flusher.Flush()
	}
	for _, name := range names {
		if err := wire.WriteTensorFrame(w, name, resp.Tensors[name]); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	_ = wire.WriteEndFrame(w)
}

// errStatus maps serving errors onto HTTP semantics: overload and draining
// are retryable (429/503 with Retry-After), bad requests are 400, the rest
// are internal.
func errStatus(err error) (status int, retryAfter time.Duration) {
	var ov *OverloadError
	switch {
	case errors.As(err, &ov):
		return http.StatusTooManyRequests, ov.RetryAfter
	case errors.Is(err, ErrDraining), errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable, 250 * time.Millisecond
	case errors.Is(err, ErrBadRequest), errors.Is(err, wire.ErrPubDecode):
		return http.StatusBadRequest, 0
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// Caller-initiated abort, not a server failure.
		return http.StatusRequestTimeout, 0
	default:
		return http.StatusInternalServerError, 0
	}
}

// maxBodyBytes sizes the /v1/infer JSON request-body cap from the largest
// request the declared input interface admits: the per-item volumes times
// maxItems, at a generous ~24 bytes per float of JSON text, plus fixed
// envelope overhead. (Binary bodies use wire.MaxRequestSize instead — exact
// 4-byte floats, tight framing.)
func maxBodyBytes(cfg Config) int64 {
	const (
		perFloat = 24
		envelope = 1 << 20
	)
	var floats int64
	for _, shape := range cfg.ItemShapes {
		per := int64(1)
		for _, d := range shape[1:] {
			per *= int64(d)
		}
		floats += per * int64(maxItems)
	}
	return floats*perFloat + envelope
}

// writeErr answers a failed request in the negotiated codec: the JSON error
// envelope, or — on the binary path — one FrameError carrying the same
// status, message and retry-after hint, so binary clients never have to
// parse JSON. The Retry-After header is set either way.
func writeErr(w http.ResponseWriter, binary bool, status int, err error, retry time.Duration) {
	if retry > 0 {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int(math.Ceil(retry.Seconds()))))
	}
	if binary {
		w.Header().Set("Content-Type", wire.ContentTypeBinary)
		w.WriteHeader(status)
		_ = wire.WriteErrorFrame(w, status, retry, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorBody{Error: err.Error(), RetryAfter: retry.Seconds()})
}
