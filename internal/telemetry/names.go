package telemetry

// Canonical metric names. They live here — not in the packages that emit
// them — so live runs (internal/monitor) and simulated runs
// (internal/pipesim) publish identical series, and the bench suite can
// assert on stable names.
const (
	// Engine (monitor) series.
	MetricEngineBatches        = "mvtee_engine_batches_total"
	MetricEngineBatchErrors    = "mvtee_engine_batch_errors_total"
	MetricEngineBatchNs        = "mvtee_engine_batch_latency_ns"
	MetricEngineQueueDepth     = "mvtee_engine_stage_queue_depth"
	MetricEngineWindowOccupied = "mvtee_engine_stage_window_occupancy"
	MetricEngineGatherNs       = "mvtee_engine_gather_ns"
	MetricEngineForwards       = "mvtee_engine_forwards_total"
	MetricEngineLadderRung     = "mvtee_engine_ladder_rung"
	MetricEngineVotes          = "mvtee_engine_votes_total"

	// Secure channel series.
	MetricChanBytesSent  = "mvtee_chan_bytes_sent_total"
	MetricChanBytesRecv  = "mvtee_chan_bytes_recv_total"
	MetricChanFramesSent = "mvtee_chan_frames_sent_total"
	MetricChanFramesRecv = "mvtee_chan_frames_recv_total"
	MetricChanSealNs     = "mvtee_chan_seal_ns"
	MetricChanOpenNs     = "mvtee_chan_open_ns"

	// Cross-validation series.
	MetricCheckVotes           = "mvtee_check_votes_total"
	MetricCheckPairDisagree    = "mvtee_check_pair_disagree_total"
	MetricCheckDivergenceScore = "mvtee_check_divergence_score"

	// TEE OS / enclave series.
	MetricTeeosSyscalls        = "mvtee_teeos_syscalls_total"
	MetricTeeosSyscallsBlocked = "mvtee_teeos_syscalls_blocked_total"
	MetricTeeosReads           = "mvtee_teeos_reads_total"
	MetricEnclaveEPCBytes      = "mvtee_enclave_epc_bytes"
	MetricEnclaveLaunches      = "mvtee_enclave_launches_total"
	MetricEnclaveGrows         = "mvtee_enclave_grows_total"

	// Event bus series. Dropped is a gauge mirroring the bus's cumulative
	// fan-out drop count (updated at publish time).
	MetricEventsPublished = "mvtee_events_published_total"
	MetricEventsDropped   = "mvtee_events_dropped"

	// Serving front-end series (internal/serve). Requests, queue depth and
	// latency carry a tenant label; admission verdicts carry a verdict label
	// (AdmitOutcome*); flushes carry a reason label (FlushReason*).
	MetricServeRequests    = "mvtee_serve_requests_total"
	MetricServeAdmission   = "mvtee_serve_admission_total"
	MetricServeQueueDepth  = "mvtee_serve_queue_depth"
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
	// mirror each actuator's current setting so operators can watch the
	// controller steer; breaches carry a tenant label.
	MetricControlEpochs         = "mvtee_control_epochs_total"
	MetricControlDecisions      = "mvtee_control_decisions_total"
	MetricControlBatchMax       = "mvtee_control_batch_max"
	MetricControlBatchDelayNs   = "mvtee_control_batch_delay_ns"
	MetricControlInflightWindow = "mvtee_control_inflight_window"
	MetricControlSpareTarget    = "mvtee_control_spare_target"
	MetricControlShedFloor      = "mvtee_control_shed_floor"
	MetricControlTenantWeight   = "mvtee_control_tenant_weight"
	MetricControlSLOBreaches    = "mvtee_control_slo_breach_total"

	// Cluster tier series (internal/cluster). Per-replica series carry a
	// replica label; forward bytes carry a plane label (ForwardPlane*) so
	// the digest-vs-tensor cross-node cost split is directly observable;
	// digest votes carry a verdict label (DigestVote*).
	MetricClusterReplicas     = "mvtee_cluster_replicas"
	MetricClusterReplicaUp    = "mvtee_cluster_replica_up"
	MetricClusterInflight     = "mvtee_cluster_replica_inflight"
	MetricClusterReplicaRung  = "mvtee_cluster_replica_ladder_rung"
	MetricClusterBatches      = "mvtee_cluster_batches_total"
	MetricClusterFailovers    = "mvtee_cluster_failovers_total"
	MetricClusterDigestVotes  = "mvtee_cluster_digest_votes_total"
	MetricClusterStageDissent = "mvtee_cluster_stage_digest_mismatch_total"
	MetricClusterFwdBytes     = "mvtee_cluster_forward_bytes_total"
	MetricClusterRouteNs      = "mvtee_cluster_route_latency_ns"

	// Cluster observability plane (trace federation + metrics federation).
	// Span reports are the replica->router span-harvest frames; span bytes
	// are accounted separately from MetricClusterFwdBytes so observability
	// traffic never skews the digest-vs-tensor forwarding cost split.
	MetricClusterSpanReports = "mvtee_cluster_span_reports_total"
	MetricClusterSpansMerged = "mvtee_cluster_spans_merged_total"
	MetricClusterSpanBytes   = "mvtee_cluster_span_report_bytes_total"
	MetricClusterMetricPolls = "mvtee_cluster_metric_polls_total"

	// Tracer series: gauges mirroring the span ring's cumulative recorded and
	// evicted counts (like MetricEventsDropped, refreshed at /metrics scrape).
	MetricTraceSpansRecorded = "mvtee_trace_spans_recorded"
	MetricTraceSpansDropped  = "mvtee_trace_spans_dropped"

	// Flight recorder series: incidents carry a reason label (FlightReason*).
	MetricFlightIncidents = "mvtee_flight_incidents_total"

	// Verifiable-transcript series (internal/transcript): leaves appended to
	// the Merkle log, hot-path events dropped on a full recorder channel
	// (each degrades one leaf, never stalls serving), and signed tree heads
	// published.
	MetricTranscriptLeaves  = "mvtee_transcript_leaves_total"
	MetricTranscriptDropped = "mvtee_transcript_dropped_total"
	MetricTranscriptHeads   = "mvtee_transcript_heads_total"

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

// Vote outcome label values for MetricEngineVotes.
const (
	VoteOutcomeOK          = "ok"
	VoteOutcomeDivergence  = "divergence"
	VoteOutcomeLateDissent = "late_dissent"
)
