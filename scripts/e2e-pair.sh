#!/usr/bin/env bash
# Usage: scripts/e2e-pair.sh PARENT WORKLOAD PAIRS SEED0   (make e2e-pair)
#
# Runs bench/run.sh for one workload PAIRS times on the parent revision
# and on this checkout's working tree, pair i on seed SEED0+i, and
# alternates which side goes first (the parent on even pairs): the
# host's speed drifts within minutes, and a fixed order would credit the
# drift to one side. The parent is an extracted copy of the revision
# (git archive) in a temporary directory, built by its own run.sh and
# removed at exit; bench/ itself is only called, never edited. Ends with
# `benchreport -pairs`: every end-to-end metric's medians, quartiles,
# wins and BENCHMARK.json bound check. Its JSON form (each run's
# end-to-end values, the summary and the two revisions) is archived as
# docs/bench/E2E_<date>_<workload>.json, or with b, c, ... after the
# date when the day already has one (never overwritten), whether the
# check passes or not. The runs' logs and results are removed when that
# check passes and kept (the path is printed) when it fails. Set TMPDIR
# to choose where the copy and the results go.
set -euo pipefail
if [ $# -ne 4 ]; then
	echo "usage: $0 PARENT WORKLOAD PAIRS SEED0" >&2
	exit 2
fi
parent=$1 workload=$2 pairs=$3 seed0=$4
root="$(git rev-parse --show-toplevel)"
rev="$(git -C "${root}" rev-parse --verify "${parent}^{commit}")"
tmp="$(mktemp -d)"
trap 'rm -rf "${tmp}/parent"' EXIT
mkdir "${tmp}/parent" "${tmp}/out"
git -C "${root}" archive "${rev}" | tar -x -C "${tmp}/parent"
change="$(git -C "${root}" rev-parse HEAD)"
if [ -n "$(git -C "${root}" status --porcelain)" ]; then change="${change} with uncommitted changes"; fi
printf '{"parent": "%s", "change": "%s"}\n' "${rev}" "${change}" >"${tmp}/out/revisions"
echo "e2e-pair: ${workload}, ${pairs} pairs from seed ${seed0}: parent ${rev:0:12} vs ${root}"

for ((i = 0; i < pairs; i++)); do
	seed=$((seed0 + i))
	order="parent change"
	if ((i % 2 == 1)); then order="change parent"; fi
	for side in ${order}; do
		dir="${root}"
		if [ "${side}" = parent ]; then dir="${tmp}/parent"; fi
		log="${tmp}/out/${side}-${i}.log"
		status=ok
		(cd "${dir}" && bash bench/run.sh --workload "${workload}" --seed "${seed}" --trace 0 \
			--json "${tmp}/out/${side}-${i}.json") >"${log}" 2>&1 || status="exit $?"
		echo "pair $((i + 1)) seed ${seed} ${side}: ${status}: $(tail -n 1 "${log}")"
	done
done

cd "${root}"
status=0
go run ./cmd/benchreport -pairs "${tmp}/out" -pairs-contract BENCHMARK.json || status=$?

# The archive's name: the day's first free one (the rule bench-json
# follows for BENCH_*).
if [ -e "${tmp}/out/pairs.json" ]; then
	day=$(date +%Y%m%d)
	archive=""
	for s in "" b c d e f g h; do
		name="docs/bench/E2E_${day}${s}_${workload}.json"
		if [ ! -e "${name}" ]; then archive=${name}; break; fi
	done
	if [ -n "${archive}" ]; then
		cp "${tmp}/out/pairs.json" "${archive}"
		echo "e2e-pair: wrote ${archive}"
	else
		echo "e2e-pair: docs/bench/E2E_${day}[b-h]_${workload}.json all exist; move some aside" >&2
		status=1
	fi
fi
if [ "${status}" -ne 0 ]; then
	echo "e2e-pair: logs and results kept in ${tmp}/out" >&2
	exit 1
fi
rm -rf "${tmp}"
