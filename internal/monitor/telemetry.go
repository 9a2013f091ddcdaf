package monitor

import (
	"strconv"

	"repro/internal/telemetry"
)

// stageMetrics are one pipeline stage's series, labeled stage="<idx>".
type stageMetrics struct {
	queueDepth *telemetry.Gauge     // batches queued behind the credit window
	gatherNs   *telemetry.Histogram // dispatch -> gather-close latency
}

// engineMetrics holds every handle the engine records into. Registration
// happens once in NewEngine; all hot-path touches are lock-free atomic ops on
// these pre-resolved series.
type engineMetrics struct {
	batches       *telemetry.Counter
	batchNs       *telemetry.Histogram
	eventsDropped *telemetry.Gauge
	stages        []stageMetrics
}

func newEngineMetrics(reg *telemetry.Registry, nStages int) *engineMetrics {
	m := &engineMetrics{
		batches:       reg.Counter(telemetry.MetricEngineBatches),
		batchNs:       reg.Histogram(telemetry.MetricEngineBatchNs),
		eventsDropped: reg.Gauge(telemetry.MetricEventsDropped),
		stages:        make([]stageMetrics, nStages),
	}
	for i := range m.stages {
		l := telemetry.L("stage", strconv.Itoa(i))
		m.stages[i] = stageMetrics{
			queueDepth: reg.Gauge(telemetry.MetricEngineQueueDepth, l),
			gatherNs:   reg.Histogram(telemetry.MetricEngineGatherNs, l),
		}
	}
	return m
}
