#!/usr/bin/env bash
# Usage: scripts/bench-pair.sh PARENT [DROPIN...]   (make bench-pair)
#
# Archives the hot-path benchmarks of `make bench-json` for the parent
# revision and for this checkout's working tree, as the pair `make
# bench-check` reads: the parent's archive first, then this tree's, each
# under the next free BENCH_<date>[b-h].json name, so they are the two
# newest. The parent is an extracted copy of the revision (git archive)
# in a temporary directory, removed at exit. The two sides alternate
# package by package, back to back, the parent first on even packages:
# the host's speed drifts within minutes, and whole-suite rounds would
# credit the drift to one side. Each side's repeats (BENCH_COUNT) are
# min-merged through this checkout's cmd/benchjson. DROPIN names test
# files (paths from the repo root) copied into the parent's copy first,
# for benchmarks the parent lacks. Set TMPDIR to choose where the copy
# goes. BENCH_PKGS, BENCH_ROOT and BENCH_COUNT come from the Makefile,
# as for bench-json.
set -euo pipefail
if [ $# -lt 1 ]; then
	echo "usage: $0 PARENT [DROPIN...]" >&2
	exit 2
fi
parent=$1
shift
root="$(git rev-parse --show-toplevel)"
rev="$(git -C "${root}" rev-parse --verify "${parent}^{commit}")"
count=${BENCH_COUNT:?set by make bench-pair}
root_re=${BENCH_ROOT:?set by make bench-pair}
tmp="$(mktemp -d)"
trap 'rm -rf "${tmp}"' EXIT
mkdir "${tmp}/parent"
git -C "${root}" archive "${rev}" | tar -x -C "${tmp}/parent"
for f in "$@"; do
	cp "${root}/${f}" "${tmp}/parent/${f}"
done
cd "${root}"
pkgs=$(go list ${BENCH_PKGS:?set by make bench-pair})
echo "bench-pair: parent ${rev:0:12} vs ${root}, ${count} runs each, $(echo "${pkgs}" | wc -l) packages + root"

# bench DIR PKG PATTERN: one package's benchmarks in one tree. A package
# the parent lacks (or that does not build there) reports and goes on.
bench() {
	(cd "$1" && go test -bench="$3" -benchmem -run='^$' -count="${count}" "$2") || echo "bench-pair: $2 failed in $1" >&2
}
i=0
for pkg in ${pkgs} root; do
	pattern=. target=${pkg}
	if [ "${pkg}" = root ]; then pattern=${root_re} target=.; fi
	order="parent change"
	if ((i % 2 == 1)); then order="change parent"; fi
	for side in ${order}; do
		dir="${root}"
		if [ "${side}" = parent ]; then dir="${tmp}/parent"; fi
		bench "${dir}" "${target}" "${pattern}" >>"${tmp}/${side}.txt"
	done
	i=$((i + 1))
done

# next_archive: the name bench-json would write next (it never
# overwrites an archive).
next_archive() {
	local day out s
	day=BENCH_$(date +%Y%m%d)
	out=${day}.json
	for s in b c d e f g h; do
		[ -e "${out}" ] || break
		out=${day}${s}.json
	done
	if [ -e "${out}" ]; then
		echo "bench-pair: ${day}.json through ${out} all exist; move some aside" >&2
		return 1
	fi
	echo "${out}"
}
for side in parent change; do
	out=$(next_archive)
	go run ./cmd/benchjson -o "${out}" <"${tmp}/${side}.txt"
	echo "bench-pair: wrote ${out} (${side})"
done
