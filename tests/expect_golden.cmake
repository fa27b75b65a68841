# Runs BIN with ARGS (one space-separated string) in the working directory
# and passes only if it exits 0 and its stdout — or, given ARTIFACT, the
# file of that name it writes there — is byte-identical to GOLDEN: the
# contract that a paper figure/table, or a smoke's simulated work counts,
# does not move. A deliberate change regenerates the goldens with
# tools/regolden.sh.
#   cmake -DBIN=<path> ["-DARGS=<args>"] [-DARTIFACT=<file>] -DGOLDEN=<file>
#         -P expect_golden.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
if(ARTIFACT)
  get_filename_component(ARTIFACT ${ARTIFACT} ABSOLUTE)  # from the working directory
  file(REMOVE ${ARTIFACT})  # a stale artifact must not pass
endif()
execute_process(COMMAND ${BIN} ${args} RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
get_filename_component(name ${BIN} NAME)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "${name} ${ARGS}: exit '${rc}', want 0\n${out}${err}")
endif()
set(what stdout)
if(ARTIFACT)
  set(what ${ARTIFACT})
  if(NOT EXISTS ${ARTIFACT})
    message(FATAL_ERROR "${name} ${ARGS} wrote no ${ARTIFACT}")
  endif()
  file(READ ${ARTIFACT} out)
endif()
file(READ ${GOLDEN} want)
if(NOT out STREQUAL want)
  message(FATAL_ERROR "${name}: ${what} differs from ${GOLDEN}\n--- got ---\n${out}")
endif()
