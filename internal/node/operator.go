package node

import (
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"sync"

	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// SetTraceRing resizes the process span ring behind /trace (n ≤ 0 keeps the
// default). Call it before anything records: the engine, the serve
// scheduler and the router all share telemetry.DefaultTracer, so /trace
// serves one merged timeline.
func SetTraceRing(n int) {
	if n > 0 {
		telemetry.DefaultTracer = telemetry.NewTracer(n)
	}
}

// Operator is the operator HTTP endpoint.
type Operator struct{ hs *http.Server }

// ListenOperator serves the operator endpoint on addr: /metrics, /trace and
// /debug/pprof/ over the process registry and span ring, plus handlers
// mounted by path (Node.Handlers). An empty addr serves nothing and returns
// a nil Operator, which Close accepts. Serving failures after the
// listener is up are logged, never fatal: the inference plane does not
// depend on the observability plane.
func ListenOperator(addr string, handlers map[string]http.Handler) (*Operator, error) {
	if addr == "" {
		return nil, nil
	}
	mux := telemetry.NewMux(telemetry.Default, telemetry.DefaultTracer)
	for path, h := range handlers {
		mux.Handle(path, h)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry listen: %w", err)
	}
	op := &Operator{hs: &http.Server{Addr: ln.Addr().String(), Handler: mux}}
	go func() {
		if err := op.hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("telemetry server: %v", err)
		}
	}()
	log.Printf("telemetry on http://%s", op.hs.Addr)
	return op, nil
}

// Addr is the bound address.
func (op *Operator) Addr() string { return op.hs.Addr }

// Close stops the endpoint and its open streams.
func (op *Operator) Close() error {
	if op == nil {
		return nil
	}
	return op.hs.Close()
}

// sloBurn derives per-tenant SLO burn-rate gauges at /metrics/cluster scrape
// time: the fraction of the last scrape interval's requests over the tenant's
// latency objective, divided by the error budget, in milli-units — 1000 means
// the budget burns exactly as fast as it accrues, higher burns it faster.
// State is the previous scrape's histogram snapshot per tenant, so the rate
// reflects the interval, not the process lifetime.
type sloBurn struct {
	tenants map[string]serve.TenantConfig

	mu   sync.Mutex
	prev map[string]telemetry.HistState
}

// errorBudget is the implied 99% objective: 1% of requests may exceed the
// tenant's p99 latency SLO before the budget burns faster than it accrues.
const errorBudget = 0.01

func newSLOBurn(tenants map[string]serve.TenantConfig) *sloBurn {
	return &sloBurn{tenants: tenants, prev: make(map[string]telemetry.HistState)}
}

// refresh recomputes every declared tenant's burn-rate gauge from the latency
// histogram delta since the previous call.
func (b *sloBurn) refresh() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for name, tc := range b.tenants {
		if tc.SLO <= 0 {
			continue
		}
		h := telemetry.Default.Histogram(telemetry.MetricServeLatencyNs, telemetry.L("tenant", name))
		cur := h.State()
		delta := cur.Sub(b.prev[name])
		b.prev[name] = cur
		burn := delta.FractionAbove(uint64(tc.SLO.Nanoseconds())) / errorBudget
		telemetry.Default.Gauge(telemetry.MetricServeSLOBurnMilli, telemetry.L("tenant", name)).Set(int64(burn * 1000))
	}
}

// clusterMetricsHandler serves the federated cluster view: the router
// process's own registry first (with the burn-rate gauges refreshed so they
// land in the same scrape), then every replica's latest polled snapshot
// re-rendered with a replica="<id>" label. Metric names shared across nodes
// repeat their # TYPE header per section — fine for the operator surface and
// every scraper tested, though strict exposition-format validators flag it.
func clusterMetricsHandler(router *cluster.Router, burn *sloBurn) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		burn.refresh()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := telemetry.Default.WriteProm(w); err != nil {
			return
		}
		for _, rm := range router.ClusterMetrics() {
			fmt.Fprintf(w, "# replica %s (snapshot age %s)\n", rm.Replica, rm.Age.Round(1e6))
			if err := telemetry.WritePromSnapshots(w, rm.Series, telemetry.L("replica", rm.Replica)); err != nil {
				return
			}
		}
	})
}
