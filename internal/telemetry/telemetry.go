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
// The subsystem must cost nothing on the hot path when disabled: every
// instrumentation site guards on Enabled() — one atomic load and a branch —
// and every metric method is nil-receiver-safe, so uninstrumented builds and
// disabled runs pay no allocation, no lock, and no syscall. When enabled, the
// budget is <5% on the warm inference hot path with zero additional
// steady-state allocations (pinned by the monitor's warm-allocs test; what
// tracing adds to a served request is perfbench's overhead.* metrics).
package telemetry

import "sync/atomic"

// enabled gates every instrumentation site. Telemetry is on by default; the
// disabled state exists for measuring its own overhead and for hosts that
// want the hot path absolutely bare.
var enabled atomic.Bool

func init() { enabled.Store(true) }

// Enabled reports whether instrumentation sites should record. It is a single
// atomic load — cheap enough to guard every hot-path touch point.
func Enabled() bool { return enabled.Load() }

// SetEnabled switches instrumentation globally. Metrics already registered
// keep their accumulated values; disabling only stops new recording.
func SetEnabled(v bool) { enabled.Store(v) }

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
