#!/bin/sh
# Tier-1 gate: everything here must pass before a change lands.
# Run from the repository root:  ./scripts/check.sh
set -eux

go vet ./...
# Vet (and so type-check and asmdecl-check) the non-amd64 build too: the
# blocked GEMM backend has an SSE kernel on amd64 and a pure-Go tile elsewhere.
GOARCH=arm64 go vet ./...
go build ./...
go test -race ./...

# The GEMM kernels, the conv lowering over them, the serving scheduler's
# submit/demux hand-off, the transcript recorder's post/Close, the cluster
# router's failover, the engine's submit path, the daemon assembly's
# bring-up and teardown, the record layer's concurrent sender and receiver
# and the control plane's ticker must hold at every core count: run them at
# GOMAXPROCS 1, 2 and 4.
go test -race -cpu 1,2,4 ./internal/blas ./internal/ops ./internal/serve ./internal/transcript ./internal/cluster ./internal/monitor ./internal/core ./internal/node ./internal/securechan ./internal/wire ./internal/control

# The router's vote/leaf table: a follower digest before the leader's
# result, after it, after the row or never, agreeing, dissenting or
# abstaining, sync and async, plus a follower's stage digest landing first
# and a leader failover after its stage digests. Every served leaf's votes
# must equal the vote counters, and its checkpoints are the serving
# leader's. Twenty passes at each core count (about 20 s).
go test -race -cpu 1,2,4 -count=20 -run 'TestRouter(Sync|Async)DigestAgreeAndDissent' ./internal/cluster

# The robustness layer (straggler deadlines, degradation ladder, hot
# replacement), the lock-free telemetry core, the adaptive
# control plane, the cluster router (failover, digest voting) and the
# transcript recorder (hot-path posts racing the worker and audit reads) are
# concurrency-heavy: run their packages twice under the race detector to
# shake out interleavings a single pass misses.
go test -race -count=2 ./internal/monitor ./internal/workpool ./internal/securechan ./internal/telemetry ./internal/control ./internal/cluster ./internal/transcript

# Allocation pins, which the race build cannot hold (its sync.Pool drops
# buffers at random): the fully instrumented warm dispatch→gather→deliver
# cycle stays at its pinned allocation count, sequential
# GEMM and depthwise kernels allocate nothing, a sequential conv only its
# output, a warm interp Run of the served mobilenetv3 stays under its
# bound, serving admission allocates only the queued request, a warm
# record-layer send and receive allocate nothing, and the resnet-50 bundle
# build stays under its total-allocation and live-heap ceilings.
go test -run='TestWarmAllocsPin|TestSequentialKernelsAllocateNothing|TestSequentialConvAllocatesOnlyOutput|TestInterpRunAllocsPin|TestSubmitAllocsPin|TestRecordLayerAllocatesNothing|TestBuildBundleMemoryPin' -count=1 ./internal/monitor ./internal/blas ./internal/ops ./internal/infer ./internal/serve ./internal/securechan ./internal/core

# Figure-sweep drift gate: `mvtee-bench -all` must still produce every
# section, model, config row and column of the committed bench_all_sim.txt
# (about a minute and a half).
./scripts/sweepcheck.sh

# Short fuzz smoke over the attacker-facing parsers: the pre-auth record
# framing, the tagged wire decoder, the public binary request decoder on
# the serving front door, the audit-plane proof and leaf decoders (audit
# documents cross trust boundaries from an untrusted serving host), and the
# tensor decoder model graphs load through.
# A few seconds each catches gross regressions; longer campaigns run
# out-of-band (weekly long-fuzz in CI; crashers recycle into testdata/fuzz/
# via scripts/fuzzrecycle.sh).
go test -run='^$' -fuzz=FuzzFrame -fuzztime=5s ./internal/securechan
go test -run='^$' -fuzz=FuzzWireUnmarshal -fuzztime=5s ./internal/wire
go test -run='^$' -fuzz=FuzzPublicRequest -fuzztime=5s ./internal/wire
go test -run='^$' -fuzz=FuzzTranscriptProof -fuzztime=5s ./internal/transcript
go test -run='^$' -fuzz=FuzzTranscriptLeaf -fuzztime=5s ./internal/transcript
go test -run='^$' -fuzz=FuzzTensorReadFrom -fuzztime=5s ./internal/tensor

# Process-level smokes, opt-in because they boot real daemons: the audit
# round trip (serving daemon plus a sampled-batch replay, about a minute)
# and the two-replica cluster (bring-up, failover, drain; about 10 s).
# CHECK_AUDIT=1 runs both.
if [ "${CHECK_AUDIT:-0}" = "1" ]; then
	./scripts/auditsmoke.sh
	./scripts/clustersmoke.sh
fi

# The end-to-end benchmark (perfbench/, its own module over this checkout):
# vet and self-test (including a one-second live run of every workload),
# then one short traced run per workload that must answer every request
# correctly. Performance bounds are BENCHMARK.json's, compared
# parent-vs-change on one host, not gated here.
GOFLAGS=-mod=mod GOPROXY=off go -C perfbench vet ./...
GOFLAGS=-mod=mod GOPROXY=off go -C perfbench test ./...
for w in resnet-open cluster-closed; do
	bash perfbench/run.sh --workload "$w" --seed 1 --seconds 5 --trace 1 | tail -n 1 | grep -Eq '"correct": ?true'
done
