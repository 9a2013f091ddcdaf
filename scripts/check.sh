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
# submit/demux hand-off, the transcript recorder's post/Close and the cluster
# router's failover must hold at every core count: run them at GOMAXPROCS 1,
# 2 and 4.
go test -race -cpu 1,2,4 ./internal/blas ./internal/ops ./internal/serve ./internal/transcript ./internal/cluster

# The robustness layer (straggler deadlines, degradation ladder, hot
# replacement, channel retry), the lock-free telemetry core, the adaptive
# control plane, the cluster router (failover, digest voting) and the
# transcript recorder (hot-path posts racing the worker and audit reads) are
# concurrency-heavy: run their packages twice under the race detector to
# shake out interleavings a single pass misses.
go test -race -count=2 ./internal/monitor ./internal/workpool ./internal/securechan ./internal/telemetry ./internal/control ./internal/cluster ./internal/transcript

# Observability overhead pin: the fully instrumented warm dispatch→gather
# path must not allocate more than the same path with telemetry disabled.
go test -run='TestWarmAllocsPin' -count=1 ./internal/monitor

# Short fuzz smoke over the attacker-facing parsers: the pre-auth record
# framing, the tagged wire decoder, the public binary request decoder on
# the serving front door, and the audit-plane proof and leaf decoders
# (audit documents cross trust boundaries from an untrusted serving host).
# A few seconds each catches gross regressions; longer campaigns run
# out-of-band (weekly long-fuzz in CI; crashers recycle into testdata/fuzz/
# via scripts/fuzzrecycle.sh).
go test -run='^$' -fuzz=FuzzFrame -fuzztime=5s ./internal/securechan
go test -run='^$' -fuzz=FuzzWireUnmarshal -fuzztime=5s ./internal/wire
go test -run='^$' -fuzz=FuzzPublicRequest -fuzztime=5s ./internal/wire
go test -run='^$' -fuzz=FuzzTranscriptProof -fuzztime=5s ./internal/transcript
go test -run='^$' -fuzz=FuzzTranscriptLeaf -fuzztime=5s ./internal/transcript

# Audit round-trip smoke: opt-in because it boots the full serving daemon
# and replays a sampled batch (about a minute). CHECK_AUDIT=1 runs it.
if [ "${CHECK_AUDIT:-0}" = "1" ]; then
	./scripts/auditsmoke.sh
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
