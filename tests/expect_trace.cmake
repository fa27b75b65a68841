# Runs the traced fig12 smoke in the working directory and checks the
# emitted Perfetto JSON from the outside. The bench itself gates that tracing perturbs
# nothing (bit-identical cycles and events) and that every fault span
# decomposes exactly into evict + queue + io; tools/trace_check.py then
# re-parses the file and checks that every async span balances.
#   cmake -DBIN=<bench_fig12_shared_swap> -DPYTHON=<python3>
#         -DCHECK=<tools/trace_check.py> -P expect_trace.cmake
# Stale artifacts from an earlier run must not satisfy the checks below.
file(REMOVE fig12_trace.json fig12_telemetry.csv)
execute_process(COMMAND ${BIN} --smoke --trace fig12_trace.json --telemetry fig12_telemetry.csv
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "traced fig12 smoke: exit '${rc}', want 0\n${out}${err}")
endif()
foreach(artifact fig12_trace.json fig12_telemetry.csv)
  if(NOT EXISTS ${CMAKE_CURRENT_BINARY_DIR}/${artifact})
    message(FATAL_ERROR "traced fig12 smoke wrote no ${artifact}")
  endif()
endforeach()
execute_process(COMMAND ${PYTHON} ${CHECK} fig12_trace.json
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "trace_check.py: exit '${rc}'\n${out}${err}")
endif()
