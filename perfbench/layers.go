package main

import (
	"math"
	"runtime/metrics"
	"time"

	"repro/internal/telemetry"
)

// layerSnap is a point-in-time read of every counter and histogram the
// per-layer metrics difference over the window. All series live in
// telemetry.Default, the registry the daemons record into.
type layerSnap struct {
	at       time.Time
	cpu      time.Duration
	counters map[string]uint64
	hists    map[string]telemetry.HistState
	gauges   map[string]int64
	rt       []metrics.Sample
	spans    uint64 // tracer total
	dropped  uint64 // tracer evictions
	inflight float64
}

// series names one labelled registry series.
type series struct {
	key, name string
	labels    []telemetry.Label
}

func lbl(k, v string) []telemetry.Label { return []telemetry.Label{telemetry.L(k, v)} }

var counterSeries = func() []series {
	s := []series{
		{"chan.bytes", telemetry.MetricChanBytesSent, nil},
		{"chan.frames", telemetry.MetricChanFramesSent, nil},
		{"transcript.leaves", telemetry.MetricTranscriptLeaves, nil},
		{"transcript.dropped", telemetry.MetricTranscriptDropped, nil},
		{"cluster.failovers", telemetry.MetricClusterFailovers, nil},
		{"flush.size", telemetry.MetricServeFlushes, lbl("reason", telemetry.FlushReasonSize)},
		{"flush.timer", telemetry.MetricServeFlushes, lbl("reason", telemetry.FlushReasonTimer)},
		{"flush.drain", telemetry.MetricServeFlushes, lbl("reason", telemetry.FlushReasonDrain)},
	}
	for _, v := range []string{telemetry.AdmitOutcomeRejectTenant, telemetry.AdmitOutcomeRejectGlobal,
		telemetry.AdmitOutcomeShed, telemetry.AdmitOutcomeDraining} {
		s = append(s, series{"admission." + v, telemetry.MetricServeAdmission, lbl("verdict", v)})
	}
	for _, p := range []string{telemetry.ForwardPlaneInput, telemetry.ForwardPlaneResult, telemetry.ForwardPlaneDigest} {
		s = append(s, series{"fwd." + p, telemetry.MetricClusterFwdBytes, lbl("plane", p)})
	}
	for _, v := range []string{telemetry.DigestVoteAgree, telemetry.DigestVoteDissent, telemetry.DigestVoteAbstain} {
		s = append(s, series{"votes." + v, telemetry.MetricClusterDigestVotes, lbl("verdict", v)})
	}
	for _, loop := range controlLoops {
		for _, dir := range []string{"up", "down"} {
			s = append(s, series{"decisions." + loop + "." + dir, telemetry.MetricControlDecisions,
				[]telemetry.Label{telemetry.L("loop", loop), telemetry.L("direction", dir)}})
		}
	}
	return s
}()

var controlLoops = []string{telemetry.ControlLoopBatch, telemetry.ControlLoopInflight,
	telemetry.ControlLoopSpares, telemetry.ControlLoopSLO, telemetry.ControlLoopQueue}

var histSeries = []series{
	{"fill", telemetry.MetricServeBatchFill, nil},
	{"seal", telemetry.MetricChanSealNs, nil},
}

// Go runtime metrics (process-wide: the serving stack, not the client).
const (
	rtAllocBytes = "/gc/heap/allocs:bytes"
	rtAllocObjs  = "/gc/heap/allocs:objects"
	rtGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	rtTotalCPU   = "/cpu/classes/total:cpu-seconds"
	rtSchedLat   = "/sched/latencies:seconds"
)

func snapLayers(tr *tracedEngine) layerSnap {
	s := layerSnap{
		at:       time.Now(),
		cpu:      cpuTime(),
		counters: map[string]uint64{},
		hists:    map[string]telemetry.HistState{},
		gauges:   map[string]int64{},
		spans:    telemetry.DefaultTracer.Total(),
		dropped:  telemetry.DefaultTracer.Dropped(),
	}
	reg := telemetry.Default
	for _, c := range counterSeries {
		s.counters[c.key] = reg.Counter(c.name, c.labels...).Value()
	}
	for _, h := range histSeries {
		s.hists[h.key] = reg.Histogram(h.name, h.labels...).State()
	}
	s.gauges["batch_max"] = reg.Gauge(telemetry.MetricControlBatchMax).Value()
	s.rt = []metrics.Sample{{Name: rtAllocBytes}, {Name: rtAllocObjs}, {Name: rtGCCPU}, {Name: rtTotalCPU}, {Name: rtSchedLat}}
	metrics.Read(s.rt)
	if tr != nil {
		s.inflight = tr.inflightIntegral(s.at)
	}
	return s
}

// rtDelta returns the window's change of runtime metric i (a counter or a
// float counter).
func rtDelta(a, b layerSnap, i int) float64 {
	switch b.rt[i].Value.Kind() {
	case metrics.KindUint64:
		return float64(b.rt[i].Value.Uint64() - a.rt[i].Value.Uint64())
	case metrics.KindFloat64:
		return b.rt[i].Value.Float64() - a.rt[i].Value.Float64()
	}
	return 0
}

// schedLatency returns the window's goroutine runnable-to-running samples
// and their median in microseconds, from the runtime's sampled histogram.
func schedLatency(a, b layerSnap) (count float64, p50us float64) {
	ha, hb := a.rt[4].Value.Float64Histogram(), b.rt[4].Value.Float64Histogram()
	counts := make([]uint64, len(hb.Counts))
	var total uint64
	for i := range hb.Counts {
		counts[i] = hb.Counts[i] - ha.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return 0, 0
	}
	var cum uint64
	for i, c := range counts {
		cum += c
		if 2*cum >= total {
			lo, hi := hb.Buckets[i], hb.Buckets[i+1]
			if math.IsInf(lo, -1) {
				lo = 0
			}
			if math.IsInf(hi, 1) {
				hi = lo
			}
			return float64(total), (lo + hi) / 2 * 1e6
		}
	}
	return float64(total), 0
}

// layerMetrics computes the registry- and runtime-derived per-layer metrics
// over the window [a, b]; served is the number of requests answered in it.
func layerMetrics(a, b layerSnap, served int) map[string]metric {
	n := float64(max(served, 1))
	d := func(key string) float64 { return float64(b.counters[key] - a.counters[key]) }
	m := map[string]metric{}
	fill := b.hists["fill"].Sub(a.hists["fill"])
	m["serve.batch_fill"] = metric{fill.Mean(), "req/batch"}
	flushes := d("flush.size") + d("flush.timer") + d("flush.drain")
	m["serve.timer_flush_share"] = metric{d("flush.timer") / math.Max(flushes, 1), "share"}
	for _, v := range []string{telemetry.AdmitOutcomeRejectTenant, telemetry.AdmitOutcomeRejectGlobal,
		telemetry.AdmitOutcomeShed, telemetry.AdmitOutcomeDraining} {
		m["serve.rejected."+v] = metric{d("admission." + v), "count"}
	}
	for _, loop := range controlLoops {
		m["control.decisions."+loop] = metric{d("decisions."+loop+".up") + d("decisions."+loop+".down"), "count"}
	}
	m["control.batch_max"] = metric{float64(b.gauges["batch_max"]), "count"}
	m["securechan.bytes_per_req"] = metric{d("chan.bytes") / n, "B"}
	m["securechan.frames_per_req"] = metric{d("chan.frames") / n, "count"}
	m["securechan.seal_us"] = metric{float64(b.hists["seal"].Sub(a.hists["seal"]).Quantile(0.5)) / 1e3, "us"}
	m["transcript.leaves_per_req"] = metric{d("transcript.leaves") / n, "count"}
	m["transcript.dropped"] = metric{d("transcript.dropped"), "count"}
	for _, p := range []string{telemetry.ForwardPlaneInput, telemetry.ForwardPlaneResult, telemetry.ForwardPlaneDigest} {
		m["cluster.fwd_bytes_per_req."+p] = metric{d("fwd."+p) / n, "B"}
	}
	votes := d("votes.agree") + d("votes.dissent") + d("votes.abstain")
	agree := 0.0
	if votes > 0 {
		agree = d("votes.agree") / votes
	}
	m["cluster.vote_agree_share"] = metric{agree, "share"}
	m["cluster.failovers"] = metric{d("cluster.failovers"), "count"}
	m["runtime.alloc_bytes_per_req"] = metric{rtDelta(a, b, 0) / n, "B"}
	m["runtime.allocs_per_req"] = metric{rtDelta(a, b, 1) / n, "count"}
	m["runtime.gc_cpu_share"] = metric{rtDelta(a, b, 2) / math.Max(rtDelta(a, b, 3), 1e-9), "share"}
	wakeups, p50 := schedLatency(a, b)
	m["runtime.sched_wakeups_per_req"] = metric{wakeups / n, "count"}
	m["runtime.sched_wait_p50_us"] = metric{p50, "us"}
	m["trace.dropped"] = metric{float64(b.dropped - a.dropped), "count"}
	m["monitor.inflight_mean"] = metric{(b.inflight - a.inflight) / b.at.Sub(a.at).Seconds(), "batches"}
	return m
}
