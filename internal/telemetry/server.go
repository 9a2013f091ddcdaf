package telemetry

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"strconv"
)

// NewMux builds the operator HTTP surface over a registry and tracer:
//
//	/metrics       Prometheus text exposition of reg
//	/trace         retained spans as JSON (?trace=<id> filters one trace)
//	/debug/pprof/  the standard pprof handlers
//
// Event streaming (/events) is mounted separately by the host via SSE,
// because the bus element type is host-defined.
func NewMux(reg *Registry, tr *Tracer) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		// Refresh the tracer's loss gauge at scrape time so the scrape
		// itself is the only reader the span ring ever pays for.
		if tr != nil && reg != nil {
			reg.Gauge(MetricTraceSpansDropped).Set(int64(tr.Dropped()))
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WriteProm(w)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		spans := tr.Snapshot()
		if q := r.URL.Query().Get("trace"); q != "" {
			id, err := strconv.ParseUint(q, 10, 64)
			if err != nil {
				http.Error(w, "bad trace id", http.StatusBadRequest)
				return
			}
			filtered := make([]Span, 0, len(spans))
			for _, s := range spans {
				if s.Trace == id {
					filtered = append(filtered, s)
				}
			}
			spans = filtered
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(spans)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// SSE serves a bus as a Server-Sent-Events stream: on connect the retained
// ring is replayed, then live entries stream as `data: <json>` frames until
// the client disconnects. Each element is JSON-encoded (honoring custom
// MarshalJSON on T).
func SSE[T any](bus *Bus[T]) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fl, ok := w.(http.Flusher)
		if !ok {
			http.Error(w, "streaming unsupported", http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		w.Header().Set("Connection", "keep-alive")

		sub := bus.Subscribe(256)
		defer sub.Close()

		enc := func(v T) bool {
			b, err := json.Marshal(v)
			if err != nil {
				return true // skip unencodable entries, keep the stream up
			}
			if _, err := w.Write([]byte("data: ")); err != nil {
				return false
			}
			if _, err := w.Write(b); err != nil {
				return false
			}
			if _, err := w.Write([]byte("\n\n")); err != nil {
				return false
			}
			fl.Flush()
			return true
		}

		for _, v := range bus.Snapshot() {
			if !enc(v) {
				return
			}
		}
		for {
			select {
			case <-r.Context().Done():
				return
			case v, ok := <-sub.C:
				if !ok {
					return
				}
				if !enc(v) {
					return
				}
			}
		}
	})
}
