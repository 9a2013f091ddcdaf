package securechan

import (
	"repro/internal/telemetry"
)

// Channel-layer series, registered once on the process-wide default registry
// (every connection in the process shares them). Byte counts cover the framed
// record (sequence word + ciphertext + tag on secure channels) without the
// 4-byte length word.
var (
	mBytesSent  = telemetry.Default.Counter(telemetry.MetricChanBytesSent)
	mFramesSent = telemetry.Default.Counter(telemetry.MetricChanFramesSent)
	mSealNs     = telemetry.Default.Histogram(telemetry.MetricChanSealNs)
	mOpenNs     = telemetry.Default.Histogram(telemetry.MetricChanOpenNs)
)

func countSent(frameBytes int) {
	mFramesSent.Inc()
	mBytesSent.Add(uint64(frameBytes))
}
