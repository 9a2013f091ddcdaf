package serve

import (
	"sync"

	"repro/internal/telemetry"
)

// admitVerdict indexes the admission-outcome counters.
type admitVerdict int

const (
	admitAdmitted admitVerdict = iota
	admitRejectTenant
	admitRejectGlobal
	admitShed
	admitDraining
	numVerdicts
)

// flushReason indexes the batch-flush counters.
type flushReason int

const (
	flushSize flushReason = iota
	flushTimer
	flushDrain
	numReasons
)

// tenantMetrics are one tenant's series, resolved once on first request.
type tenantMetrics struct {
	requests  *telemetry.Counter
	rejected  *telemetry.Counter
	latencyNs *telemetry.Histogram
}

// serveMetrics holds the server's pre-resolved telemetry handles; hot-path
// records are lock-free atomic ops (per-tenant handles are cached after the
// tenant's first request).
type serveMetrics struct {
	reg         *telemetry.Registry
	admissions  [numVerdicts]*telemetry.Counter
	flushes     [numReasons]*telemetry.Counter
	batchFill   *telemetry.Histogram
	globalDepth *telemetry.Gauge
	shedLevel   *telemetry.Gauge
	inflight    *telemetry.Gauge
	protos      [2]*telemetry.Counter // [json, binary] request codecs

	mu      sync.Mutex
	tenants map[string]*tenantMetrics
	// undeclared counts the entries of tenants that no config declared;
	// only these count against tenantSeriesCap.
	undeclared int
	// overflow is the shared no-op handle set handed to undeclared tenants
	// past the per-tenant series cap: the registry never deletes series, so
	// attacker-rotated tenant names must not register unboundedly. Its nil
	// fields make every record a nil-safe no-op.
	overflow tenantMetrics
}

// tenantSeriesCap bounds how many distinct undeclared tenant names may
// register per-tenant series; declared tenants always register.
const tenantSeriesCap = 256

func newServeMetrics(reg *telemetry.Registry) *serveMetrics {
	if reg == nil {
		reg = telemetry.Default
	}
	m := &serveMetrics{reg: reg, tenants: make(map[string]*tenantMetrics)}
	verdicts := [numVerdicts]string{
		telemetry.AdmitOutcomeAdmitted,
		telemetry.AdmitOutcomeRejectTenant,
		telemetry.AdmitOutcomeRejectGlobal,
		telemetry.AdmitOutcomeShed,
		telemetry.AdmitOutcomeDraining,
	}
	for i, v := range verdicts {
		m.admissions[i] = reg.Counter(telemetry.MetricServeAdmission, telemetry.L("verdict", v))
	}
	reasons := [numReasons]string{
		telemetry.FlushReasonSize,
		telemetry.FlushReasonTimer,
		telemetry.FlushReasonDrain,
	}
	for i, r := range reasons {
		m.flushes[i] = reg.Counter(telemetry.MetricServeFlushes, telemetry.L("reason", r))
	}
	m.protos[0] = reg.Counter(telemetry.MetricServeProto, telemetry.L("proto", "json"))
	m.protos[1] = reg.Counter(telemetry.MetricServeProto, telemetry.L("proto", "binary"))
	m.batchFill = reg.Histogram(telemetry.MetricServeBatchFill)
	m.globalDepth = reg.Gauge(telemetry.MetricServeQueueGlobal)
	m.shedLevel = reg.Gauge(telemetry.MetricServeShedLevel)
	m.inflight = reg.Gauge(telemetry.MetricServeInflight)
	return m
}

func (m *serveMetrics) tenant(name string, declared bool) *tenantMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.tenants[name]
	if !ok {
		if !declared {
			if m.undeclared >= tenantSeriesCap {
				return &m.overflow
			}
			m.undeclared++
		}
		l := telemetry.L("tenant", name)
		t = &tenantMetrics{
			requests:  m.reg.Counter(telemetry.MetricServeRequests, l),
			rejected:  m.reg.Counter(telemetry.MetricServeAdmission, telemetry.L("verdict", telemetry.AdmitOutcomeRejectTenant), l),
			latencyNs: m.reg.Histogram(telemetry.MetricServeLatencyNs, l),
		}
		m.tenants[name] = t
	}
	return t
}

func (m *serveMetrics) admission(v admitVerdict) { m.admissions[v].Inc() }

// proto counts one HTTP request by its request codec.
func (m *serveMetrics) proto(binary bool) {
	if binary {
		m.protos[1].Inc()
	} else {
		m.protos[0].Inc()
	}
}

func (m *serveMetrics) flush(r flushReason, fill, inflight int) {
	m.flushes[r].Inc()
	m.batchFill.Observe(int64(fill))
	m.inflight.Set(int64(inflight))
}
