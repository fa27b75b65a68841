# Runs BIN with ARGS (one space-separated string) and passes only if it
# exits 2 and prints its usage line: the contract for a malformed
# invocation (no abort, no silently accepted flag).
#   cmake -DBIN=<path> "-DARGS=<args>" -P expect_usage.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${BIN} ${args} RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
get_filename_component(name ${BIN} NAME)
if(NOT rc STREQUAL "2" OR NOT err MATCHES "usage: ${name} ")
  message(FATAL_ERROR "${name} ${ARGS}: exit '${rc}', want 2 with its usage line\n${out}${err}")
endif()
