#!/usr/bin/env bash
# Regenerates bench/golden/<name>.txt, the committed stdout that the
# `paper` ctest label compares each paper binary against. Run it only for a
# change that is meant to move a figure, and say in the change log why.
#
#   tools/regolden.sh            # uses build/, builds the binaries first
#   BUILD=build-rel JOBS=2 tools/regolden.sh
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${root}/${BUILD:-build}"
golden="${root}/bench/golden"
jobs="${JOBS:-$(nproc)}"

cmake -B "${build}" -S "${root}" >/dev/null
mkdir -p "${golden}"
for f in "${golden}"/*.txt; do
  name="$(basename "${f}" .txt)"
  cmake --build "${build}" -j "${jobs}" --target "bench_${name}" >/dev/null
  "${build}/bench_${name}" >"${f}"
  echo "regolden: ${name}"
done
git -C "${root}" diff --stat -- bench/golden
