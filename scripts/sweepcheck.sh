#!/bin/sh
# Figure-sweep drift gate (CI runs it on pull requests and nightly;
# scripts/check.sh runs it too): regenerate every EXPERIMENTS.md figure and
# table (`mvtee-bench -all`) and diff the output against the committed
# archive bench_all_sim.txt. The sim numbers are calibrated from real
# executions on the running host, so the comparison is structural: every
# numeric token is normalized to `#` on both sides before diffing. What the
# gate catches is a sweep that silently lost a section, a model, a config row
# or a column — the archive claiming results the code no longer produces.
#
#   ./scripts/sweepcheck.sh              # compare, unified diff on drift
#   SWEEPCHECK_UPDATE=1 ./scripts/sweepcheck.sh   # refresh the archive
set -eu

baseline="bench_all_sim.txt"
[ -f "$baseline" ] || { echo "sweepcheck: $baseline missing (run from the repo root)" >&2; exit 2; }

out=$(mktemp) na=$(mktemp) nb=$(mktemp)
trap 'rm -f "$out" "$na" "$nb"' EXIT

echo "sweepcheck: regenerating figure sweeps (mvtee-bench -all)..." >&2
go run ./cmd/mvtee-bench -all > "$out"

if [ "${SWEEPCHECK_UPDATE:-0}" = "1" ]; then
	cp "$out" "$baseline"
	echo "sweepcheck: refreshed $baseline"
	exit 0
fi

# Normalize every numeric token (integers, decimals, exponents, signs) to
# `#` and collapse whitespace runs — column padding tracks number widths, so
# raw spacing would re-introduce the numbers the first pass removed. Table 1
# dissenter membership depends on which diversified variant happens to
# diverge first, so the bracket contents normalize away too (the structural
# claim is the detected/recovered verdict, not who dissented). Applied
# identically to both sides, so only structure can differ.
normalize() {
	sed -E 's/dissenters \[[^]]*\]/dissenters [...]/g
		s/-?[0-9]+(\.[0-9]+)?(e[+-]?[0-9]+)?/#/g
		s/[[:space:]]+/ /g
		s/ $//' "$1"
}
normalize "$baseline" > "$na"
normalize "$out" > "$nb"

if ! diff -u "$na" "$nb"; then
	echo "sweepcheck: FAIL — sweep structure drifted from $baseline" >&2
	echo "sweepcheck: if the change is intentional, refresh with SWEEPCHECK_UPDATE=1" >&2
	exit 1
fi
echo "sweepcheck: OK — regenerated sweeps match $baseline structurally"
