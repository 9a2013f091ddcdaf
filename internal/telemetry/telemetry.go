// Package telemetry is MVTEE's stdlib-only observability subsystem: a
// zero-allocation metrics core (atomic counters/gauges and fixed-bucket log2
// latency histograms with lock-free recording), batch-scoped tracing (a
// TraceID minted per inference batch, propagated through the wire batch
// header to variants and back, with spans for every pipeline hop), and a
// non-blocking event bus (ring buffer plus subscriber fan-out that drops
// instead of blocking). An operator HTTP surface exports all three:
// /metrics (Prometheus text format), /trace (recent spans as JSON),
// /events (SSE) and /debug/pprof/*.
//
// Telemetry is always on. Every metric method is nil-receiver-safe and
// records with atomics, so the warm inference hot path adds no allocation,
// no lock and no syscall (pinned by the monitor's warm-allocs test; what
// tracing adds to a served request is perfbench's overhead.* metrics). Every
// series is named once in names.go, and DESIGN.md's metric reference table,
// checked against it by TestMetricTableMatchesNames, says what reads each.
package telemetry

// Severity classifies operator-facing events for the /events stream: routine
// lifecycle (info), degraded-but-operating conditions (warn), and signals
// bearing on the security argument itself (security).
type Severity int

// Severities, least to most urgent.
const (
	SevInfo Severity = iota + 1
	SevWarn
	SevSecurity
)

func (s Severity) String() string {
	switch s {
	case SevInfo:
		return "info"
	case SevWarn:
		return "warn"
	case SevSecurity:
		return "security"
	default:
		return "unknown"
	}
}

// Valid reports whether s is one of the defined severities — the event-kind
// exhaustiveness tests use it to reject unclassified kinds.
func (s Severity) Valid() bool { return s >= SevInfo && s <= SevSecurity }
