# Runs BIN and passes only if it exits 0 and its stdout is byte-identical
# to GOLDEN: the contract that a paper figure/table does not move. A
# deliberate change regenerates the goldens with tools/regolden.sh.
#   cmake -DBIN=<path> -DGOLDEN=<file> -P expect_golden.cmake
execute_process(COMMAND ${BIN} RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
get_filename_component(name ${BIN} NAME)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "${name}: exit '${rc}', want 0\n${out}${err}")
endif()
file(READ ${GOLDEN} want)
if(NOT out STREQUAL want)
  message(FATAL_ERROR "${name}: stdout differs from ${GOLDEN}\n--- got ---\n${out}")
endif()
