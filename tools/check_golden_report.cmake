# Run a bench's quick grid with every cell simulated and check-equal
# its report against a committed golden. TSTREAM_TRACE_CACHE is
# cleared so that no cached trace can stand in for the memory model:
# the golden then pins the simulator's classification byte for byte.
#
# Usage:
#   cmake -DBENCH=<bench binary> -DCHECK=<tstream-bench binary>
#         -DGOLDEN=<golden.json> -DOUT=<report.json>
#         -P check_golden_report.cmake
foreach(var BENCH CHECK GOLDEN OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR
      "check_golden_report.cmake needs -DBENCH -DCHECK -DGOLDEN -DOUT")
  endif()
endforeach()
unset(ENV{TSTREAM_TRACE_CACHE})
execute_process(
  COMMAND ${BENCH} --quick --json ${OUT}
  OUTPUT_QUIET
  RESULT_VARIABLE rv)
if(NOT rv EQUAL 0)
  message(FATAL_ERROR "${BENCH} failed with status ${rv}")
endif()
execute_process(
  COMMAND ${CHECK} check-equal ${GOLDEN} ${OUT}
  RESULT_VARIABLE rv)
if(NOT rv EQUAL 0)
  message(FATAL_ERROR "${OUT} differs from the golden ${GOLDEN}")
endif()
