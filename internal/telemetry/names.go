package telemetry

// Canonical metric names. They live here — not in the packages that emit
// them — so live runs (internal/monitor) and simulated runs
// (internal/pipesim) publish identical series, and the bench suite can
// assert on stable names.
const (
	// Engine (monitor) series.
	MetricEngineBatches    = "mvtee_engine_batches_total"
	MetricEngineBatchNs    = "mvtee_engine_batch_latency_ns"
	MetricEngineQueueDepth = "mvtee_engine_stage_queue_depth"
	MetricEngineGatherNs   = "mvtee_engine_gather_ns"

	// Secure channel series.
	MetricChanBytesSent  = "mvtee_chan_bytes_sent_total"
	MetricChanFramesSent = "mvtee_chan_frames_sent_total"
	MetricChanSealNs     = "mvtee_chan_seal_ns"
	MetricChanOpenNs     = "mvtee_chan_open_ns"

	// Event bus series. Dropped is a gauge mirroring the bus's cumulative
	// fan-out drop count (updated at publish time).
	MetricEventsDropped = "mvtee_events_dropped"

	// Serving front-end series (internal/serve). Requests and latency
	// carry a tenant label; admission verdicts carry a verdict label
	// (AdmitOutcome*); flushes carry a reason label (FlushReason*).
	MetricServeRequests    = "mvtee_serve_requests_total"
	MetricServeAdmission   = "mvtee_serve_admission_total"
	MetricServeQueueGlobal = "mvtee_serve_queue_depth_global"
	MetricServeBatchFill   = "mvtee_serve_batch_fill"
	MetricServeFlushes     = "mvtee_serve_batch_flush_total"
	MetricServeLatencyNs   = "mvtee_serve_request_latency_ns"
	MetricServeShedLevel   = "mvtee_serve_shed_level"
	MetricServeInflight    = "mvtee_serve_inflight_batches"
	// MetricServeProto counts HTTP requests by negotiated request codec
	// (proto label: "json" | "binary").
	MetricServeProto = "mvtee_serve_proto_total"

	// Control-plane series (internal/control). Decisions carry loop
	// (ControlLoop*) and direction ("up" | "down") labels; the knob gauges
	// mirror the actuators the front door's flight recorder and perfbench
	// read; breaches carry a tenant label.
	MetricControlEpochs         = "mvtee_control_epochs_total"
	MetricControlDecisions      = "mvtee_control_decisions_total"
	MetricControlBatchMax       = "mvtee_control_batch_max"
	MetricControlInflightWindow = "mvtee_control_inflight_window"
	MetricControlShedFloor      = "mvtee_control_shed_floor"
	MetricControlSLOBreaches    = "mvtee_control_slo_breach_total"

	// Cluster tier series (internal/cluster). Per-replica series carry a
	// replica label; forward bytes carry a plane label (ForwardPlane*) so
	// the digest-vs-tensor cross-node cost split is directly observable;
	// digest votes carry a verdict label (DigestVote*).
	MetricClusterReplicaUp   = "mvtee_cluster_replica_up"
	MetricClusterReplicaRung = "mvtee_cluster_replica_ladder_rung"
	MetricClusterFailovers   = "mvtee_cluster_failovers_total"
	MetricClusterDigestVotes = "mvtee_cluster_digest_votes_total"
	MetricClusterFwdBytes    = "mvtee_cluster_forward_bytes_total"

	// Cluster observability plane (trace federation + metrics federation).
	// Span reports are the replica->router span-harvest frames; span bytes
	// are accounted separately from MetricClusterFwdBytes so observability
	// traffic never skews the digest-vs-tensor forwarding cost split.
	MetricClusterSpanReports = "mvtee_cluster_span_reports_total"
	MetricClusterSpansMerged = "mvtee_cluster_spans_merged_total"
	MetricClusterSpanBytes   = "mvtee_cluster_span_report_bytes_total"
	MetricClusterMetricPolls = "mvtee_cluster_metric_polls_total"

	// Tracer series: a gauge mirroring the span ring's cumulative evicted
	// count (like MetricEventsDropped, refreshed at /metrics scrape).
	MetricTraceSpansDropped = "mvtee_trace_spans_dropped"

	// Flight recorder series: incidents carry a reason label (FlightReason*).
	MetricFlightIncidents = "mvtee_flight_incidents_total"

	// Verifiable-transcript series (internal/transcript): leaves appended to
	// the Merkle log and hot-path events dropped on a full recorder channel
	// (each degrades one leaf, never stalls serving).
	MetricTranscriptLeaves  = "mvtee_transcript_leaves_total"
	MetricTranscriptDropped = "mvtee_transcript_dropped_total"

	// Derived SLO burn rate per tenant, in milli-units (1000 = burning the
	// error budget exactly as fast as it accrues), computed at /metrics/cluster
	// scrape time from the latency histogram delta since the previous scrape.
	MetricServeSLOBurnMilli = "mvtee_serve_slo_burn_rate_milli"
)

// Flight-recorder trigger reason label values for MetricFlightIncidents.
const (
	FlightReasonFailover    = "failover"
	FlightReasonDissent     = "dissent"
	FlightReasonReplicaDown = "replica_down"
	FlightReasonDemotion    = "ladder_demotion"
	FlightReasonSLOBreach   = "slo_breach"
)

// Forward plane label values for MetricClusterFwdBytes: input dispatch
// (identical in both forwarding modes), result shipping (leader results plus
// follower full-tensor cross-checks), and the digest verification plane.
const (
	ForwardPlaneInput  = "input"
	ForwardPlaneResult = "result"
	ForwardPlaneDigest = "digest"
)

// Digest vote verdict label values for MetricClusterDigestVotes.
const (
	DigestVoteAgree   = "agree"
	DigestVoteDissent = "dissent"
	DigestVoteAbstain = "abstain"
)

// Control loop label values for MetricControlDecisions.
const (
	ControlLoopBatch    = "batch_window"
	ControlLoopInflight = "inflight_window"
	ControlLoopSpares   = "spares"
	ControlLoopSLO      = "tenant_slo"
	ControlLoopQueue    = "queue_depth"
)

// Admission verdict label values for MetricServeAdmission.
const (
	AdmitOutcomeAdmitted     = "admitted"
	AdmitOutcomeRejectTenant = "reject_tenant"
	AdmitOutcomeRejectGlobal = "reject_global"
	AdmitOutcomeShed         = "shed"
	AdmitOutcomeDraining     = "draining"
)

// Batch flush reason label values for MetricServeFlushes.
const (
	FlushReasonSize  = "size"
	FlushReasonTimer = "timer"
	FlushReasonDrain = "drain"
)
