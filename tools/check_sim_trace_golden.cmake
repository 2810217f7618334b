# Record the quick cells listed in a golden file and require each
# trace file's SHA-256 to equal the committed value, so any change in
# the memory model's output (misses, their order, classes or fields)
# fails ctest.
#
# Usage:
#   cmake -DTRACE_TOOL=<tstream-trace binary> -DGOLDEN=<file.sha256>
#         -DWORKDIR=<dir> -P check_sim_trace_golden.cmake
#
# Each non-comment line of GOLDEN is "<sha256> <workload> <context>
# <trace>"; the cell is recorded with `record --quick` into WORKDIR.
foreach(var TRACE_TOOL GOLDEN WORKDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR
      "check_sim_trace_golden.cmake needs -DTRACE_TOOL -DGOLDEN -DWORKDIR")
  endif()
endforeach()
unset(ENV{TSTREAM_TRACE_CACHE})
file(STRINGS ${GOLDEN} lines REGEX "^[0-9a-f]")
set(failures "")
set(checked 0)
foreach(line IN LISTS lines)
  separate_arguments(fields UNIX_COMMAND "${line}")
  list(LENGTH fields n)
  if(NOT n EQUAL 4)
    message(FATAL_ERROR "malformed golden line: ${line}")
  endif()
  list(GET fields 0 want)
  list(GET fields 1 workload)
  list(GET fields 2 context)
  list(GET fields 3 trace)
  set(out ${WORKDIR}/sim_golden_${workload}_${context}_${trace}.tst)
  execute_process(
    COMMAND ${TRACE_TOOL} record --quick --workload ${workload}
            --context ${context} --trace ${trace} -o ${out}
    OUTPUT_QUIET
    ERROR_VARIABLE err
    RESULT_VARIABLE rv)
  if(NOT rv EQUAL 0)
    message(FATAL_ERROR
      "record ${workload} ${context} ${trace} failed (${rv}):\n${err}")
  endif()
  file(SHA256 ${out} got)
  if(NOT got STREQUAL want)
    string(APPEND failures
      "\n  ${workload} ${context} ${trace}: ${got} (golden ${want})")
  endif()
  math(EXPR checked "${checked} + 1")
endforeach()
if(checked EQUAL 0)
  message(FATAL_ERROR "${GOLDEN} lists no traces")
endif()
if(failures)
  message(FATAL_ERROR "traces differ from ${GOLDEN}:${failures}")
endif()
message(STATUS "${checked} traces match ${GOLDEN}")
