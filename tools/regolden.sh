#!/usr/bin/env bash
# Regenerates every golden the `paper` and `smoke` ctest labels compare
# against: bench/golden/<name>.txt, the committed stdout of a full run of
# bench_<name>; bench/golden/smoke/<name>.json, the BENCH JSON of
# `bench_<name> --smoke` (simulated cycles, events, faults and extras, and
# the host-work counts `scheduled`, `run_ahead` and `copied_pages`); and
# bench/golden/example/<name>.txt, the stdout of example_<name>. Run
# it only for a change that is meant to move a figure or a smoke's work
# counts, and say in the change log why.
#
#   tools/regolden.sh            # uses build/, builds the binaries first
#   BUILD=build-rel JOBS=2 tools/regolden.sh
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${root}/${BUILD:-build}"
golden="${root}/bench/golden"
jobs="${JOBS:-$(nproc)}"
scratch="$(mktemp -d)"
trap 'rm -rf "${scratch}"' EXIT

cmake -B "${build}" -S "${root}" >/dev/null
for f in "${golden}"/*.txt; do
  name="$(basename "${f}" .txt)"
  cmake --build "${build}" -j "${jobs}" --target "bench_${name}" >/dev/null
  (cd "${scratch}" && "${build}/bench_${name}") >"${f}"
  echo "regolden: ${name}"
done
# Each smoke writes exactly one BENCH_*.json into its (fresh) directory.
for f in "${golden}"/smoke/*.json; do
  name="$(basename "${f}" .json)"
  cmake --build "${build}" -j "${jobs}" --target "bench_${name}" >/dev/null
  rm -f "${scratch}"/BENCH_*.json
  (cd "${scratch}" && "${build}/bench_${name}" --smoke >/dev/null)
  cp "${scratch}"/BENCH_*.json "${f}"
  echo "regolden: ${name} --smoke"
done
for f in "${golden}"/example/*.txt; do
  name="$(basename "${f}" .txt)"
  cmake --build "${build}" -j "${jobs}" --target "example_${name}" >/dev/null
  (cd "${scratch}" && "${build}/example_${name}") >"${f}"
  echo "regolden: example_${name}"
done
git -C "${root}" diff --stat -- bench/golden
