package securechan

import (
	"repro/internal/telemetry"
)

// Channel-layer series, registered once on the process-wide default registry
// (every connection in the process shares them). Byte counts cover the framed
// record (sequence word + ciphertext + tag on secure channels); the 4-byte
// length word is excluded on both directions so sent and received totals
// match across a pipe.
var (
	mBytesSent  = telemetry.Default.Counter(telemetry.MetricChanBytesSent)
	mBytesRecv  = telemetry.Default.Counter(telemetry.MetricChanBytesRecv)
	mFramesSent = telemetry.Default.Counter(telemetry.MetricChanFramesSent)
	mFramesRecv = telemetry.Default.Counter(telemetry.MetricChanFramesRecv)
	mSealNs     = telemetry.Default.Histogram(telemetry.MetricChanSealNs)
	mOpenNs     = telemetry.Default.Histogram(telemetry.MetricChanOpenNs)
)

func countSent(frameBytes int) {
	if telemetry.Enabled() {
		mFramesSent.Inc()
		mBytesSent.Add(uint64(frameBytes))
	}
}

func countRecvd(frameBytes int) {
	if telemetry.Enabled() {
		mFramesRecv.Inc()
		mBytesRecv.Add(uint64(frameBytes))
	}
}
