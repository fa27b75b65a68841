#!/usr/bin/env bash
# Sanitizer gauntlet: builds the whole tree under ASan + UBSan (LeakSanitizer
# on) in build-asan/ and runs the tier1, stress, smoke and paper labels
# there — the unit tests, the seeded stress suites, the fig12..fig15
# --smoke runs, the examples and the 21 bench goldens (fig3..fig15,
# tab1..tab3, abl1..abl5). Any
# test failure, sanitizer report or leak exits non-zero.
#
#   tools/gauntlet.sh                        # from anywhere in the repo
#   JOBS=2 tools/gauntlet.sh
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${root}/build-asan"
jobs="${JOBS:-$(nproc)}"

cmake -B "${build}" -S "${root}" -DCMAKE_BUILD_TYPE=RelWithDebInfo -DVMSLS_SANITIZE=ON
cmake --build "${build}" -j "${jobs}"

# Every report is fatal: ASan and UBSan halt on the first error, and a leak
# report fails the process at exit.
export ASAN_OPTIONS="detect_leaks=1:halt_on_error=1:strict_string_checks=1"
export LSAN_OPTIONS="exitcode=23"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
ctest --test-dir "${build}" --output-on-failure -L 'tier1|stress|smoke|paper' -j "${jobs}"
