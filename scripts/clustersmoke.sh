#!/bin/sh
# Cluster smoke: the README two-replica quickstart from built binaries.
# Every variant starts before its monitor, in a shuffled order across both
# replicas, so bring-up depends on the variants' dial retry. Then:
#
#   1. a burst of N inferences must all succeed, and the router must count
#      at least N agreeing follower votes and no dissent;
#   2. one replica's monitor is killed during a concurrent burst: the
#      router must count a failover and every request must still get a 200;
#   3. SIGTERM on the front door must end in "drain complete".
#
# It reads the router's mvtee_cluster_digest_votes_total{verdict="agree"},
# {verdict="dissent"} and mvtee_cluster_failovers_total. About 10 s.
#
#   ./scripts/clustersmoke.sh
# Ports override: CLUSTERSMOKE_PORT (six consecutive ports from it).
set -eu

base="${CLUSTERSMOKE_PORT:-18300}"
monA="127.0.0.1:$base"
monB="127.0.0.1:$((base + 1))"
repA="127.0.0.1:$((base + 2))"
repB="127.0.0.1:$((base + 3))"
front="127.0.0.1:$((base + 4))"
tel="127.0.0.1:$((base + 5))"
n=20
plans='ort-cpu;ort-cpu,ort-altep,tvm-graph;ort-cpu'

work=$(mktemp -d)
pids=""
cleanup() {
	for p in $pids; do
		kill -9 "$p" 2>/dev/null || true
	done
	wait 2>/dev/null || true
	rm -rf "$work"
}
trap cleanup EXIT INT TERM

fail() {
	echo "clustersmoke: FAIL — $*" >&2
	for f in "$work"/*.log; do
		echo "--- $(basename "$f")" >&2
		tail -n 20 "$f" >&2
	done
	exit 1
}

# waitlog FILE TEXT: wait up to 60 s for TEXT to appear in FILE.
waitlog() {
	i=0
	until grep -q "$2" "$1" 2>/dev/null; do
		i=$((i + 1))
		[ "$i" -ge 240 ] && fail "no \"$2\" in $(basename "$1")"
		sleep 0.25
	done
}

infer() {
	"$work/mvtee-tool" infer -addr "http://$front" -binary -input image=1x3x32x32 -seed "$1" > /dev/null 2>&1
}

# metric NAME_AND_LABELS: the router's current value of one series, 0 when
# the series is not exposed yet.
metric() {
	curl -s "http://$tel/metrics" | awk -v s="$1" '$1 == s { v = $2 } END { print v + 0 }'
}

echo "clustersmoke: building binaries and the bundle..." >&2
for b in mvtee-tool mvtee-monitor mvtee-variant mvtee-serve; do
	go build -o "$work/$b" "./cmd/$b"
done
"$work/mvtee-tool" build -model mobilenetv3 -out "$work/bundle" -targets 3 -specs real > /dev/null

echo "clustersmoke: starting 10 variants in shuffled order, then 2 monitors..." >&2
i=0
for r in $(printf '%s\n' a a a a a b b b b b | shuf); do
	i=$((i + 1))
	if [ "$r" = a ]; then addr=$monA; else addr=$monB; fi
	"$work/mvtee-variant" -bundle "$work/bundle" -connect "$addr" > "$work/variant-$r$i.log" 2>&1 &
	pids="$pids $!"
done
sleep 1
"$work/mvtee-monitor" -bundle "$work/bundle" -listen "$monA" -plans "$plans" \
	-replica-listen "$repA" -replica-id rep-a > "$work/monitor-a.log" 2>&1 &
pidA=$!
"$work/mvtee-monitor" -bundle "$work/bundle" -listen "$monB" -plans "$plans" \
	-replica-listen "$repB" -replica-id rep-b > "$work/monitor-b.log" 2>&1 &
pidB=$!
pids="$pids $pidA $pidB"
waitlog "$work/monitor-a.log" "awaiting router"
waitlog "$work/monitor-b.log" "awaiting router"

"$work/mvtee-serve" -replicas "$repA,$repB" -replica-bundle "$work/bundle" \
	-listen "$front" -telemetry-addr "$tel" > "$work/serve.log" 2>&1 &
pidS=$!
pids="$pids $pidS"
waitlog "$work/serve.log" "serving on"

echo "clustersmoke: burst 1 ($n inferences)..." >&2
k=0
while [ "$k" -lt "$n" ]; do
	infer "$k" || fail "inference $k failed"
	k=$((k + 1))
done
# Async mode counts a vote when it lands, which may be after its row.
i=0
until [ "$(metric 'mvtee_cluster_digest_votes_total{verdict="agree"}')" -ge "$n" ]; do
	i=$((i + 1))
	[ "$i" -ge 40 ] && fail "agree votes $(metric 'mvtee_cluster_digest_votes_total{verdict="agree"}') < $n"
	sleep 0.25
done
dissent=$(metric 'mvtee_cluster_digest_votes_total{verdict="dissent"}')
[ "$dissent" -eq 0 ] || fail "dissent votes = $dissent, want 0"
echo "clustersmoke: agree >= $n, dissent 0" >&2

echo "clustersmoke: burst 2 (4 clients) with replica rep-b killed mid-burst..." >&2
# Each client sends until the stop file appears, logging one line per 200.
clients=""
for c in 1 2 3 4; do
	(
		k=0
		until [ -e "$work/stop" ]; do
			if infer "$c$k"; then
				echo ok >> "$work/ok"
			else
				echo "client $c request $k" >> "$work/failed"
			fi
			k=$((k + 1))
		done
	) &
	clients="$clients $!"
done
pids="$pids $clients"
sleep 1
# Freeze rep-b before killing it: batches the router places on it meanwhile
# stay in flight, so the kill always has a leader batch to fail over.
kill -STOP "$pidB"
sleep 0.5
kill -9 "$pidB"
sleep 1
touch "$work/stop"
# shellcheck disable=SC2086
wait $clients
[ -e "$work/failed" ] && fail "requests without a 200: $(tr '\n' ';' < "$work/failed")"
failovers=$(metric mvtee_cluster_failovers_total)
[ "$failovers" -ge 1 ] || fail "failovers = $failovers, want >= 1"
echo "clustersmoke: $(wc -l < "$work/ok") requests answered 200, failovers $failovers" >&2

echo "clustersmoke: SIGTERM the front door..." >&2
kill -TERM "$pidS"
wait "$pidS" || true
grep -q "drain complete" "$work/serve.log" || fail "no \"drain complete\" after SIGTERM"

echo "clustersmoke: OK"
